"""BCH codes as generator polynomials and as trace-evaluation codes,
plus the punctured Reed-Muller template and the coset decomposition.

Codeword coordinates are ordered by x = alpha^0, alpha^1, ..., so the
t-th coordinate of a trace word is f(alpha^t); weight data is order
independent but emitted codewords must be reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfarith
from .cyclotomic import CodeParams, bch_dimension, cyclotomic_coset
from .errors import BchFormsError, CountMismatch, OutOfRange
from .forms import TraceQuadraticForm
from .gfarith import FieldContext, field_for
from .schemes import FamilySpec, enumerate_family


@dataclass
class CyclicCode:
    field: FieldContext
    length: int
    generator: list[int]  # over GF(q), lowest degree first
    dimension: int

    def to_json(self) -> dict:
        return {
            "field": self.field.to_spec(),
            "length": self.length,
            "generator": [int(c) for c in self.generator],
            "dimension": self.dimension,
        }


@dataclass(frozen=True)
class TraceCodewordSpec:
    """Message of the trace representation: lambda tuple, mu, epsilon."""

    lambdas: tuple[int, ...]
    mu: int
    eps: int


def minimal_polynomial(field: FieldContext, s: int) -> list[int]:
    """m_s(x) = prod over the coset of s of (x - alpha^j), coefficients in GF(q)."""
    n = field.n
    if not 0 <= s < n:
        raise OutOfRange(f"s={s} out of [0, q^m-1)")
    coset = cyclotomic_coset(s, field.q, field.m)
    # product in GF(q^m)[x]
    poly = [1]
    for j in coset.members:
        root = int(field.exp_index[j])
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] = field.add(nxt[d + 1], c)
            nxt[d] = field.add(nxt[d], field.mul(field.neg(root), c))
        poly = nxt
    for c in poly:
        if not field.in_base(c):
            raise BchFormsError("minimal polynomial left GF(q)")  # internal bug
    if len(poly) - 1 != coset.size:
        raise CountMismatch(f"minimal polynomial of degree {len(poly) - 1}, coset size {coset.size}")
    return [int(c) for c in poly]


def generator_polynomial(q: int, m: int, delta: int) -> CyclicCode:
    """g = lcm(m_1, ..., m_{delta-1}) as the product over distinct cosets."""
    fld = field_for(q, m)
    n = fld.n
    if not 2 <= delta <= n:
        raise OutOfRange(f"delta={delta} out of [2, q^m-1]")
    leaders = sorted({cyclotomic_coset(s, q, m).leader for s in range(1, delta)})
    g = [1]
    for s in leaders:
        g = gfarith.poly_mul(fld.base, g, minimal_polynomial(fld, s))
    dim = n - (len(g) - 1)
    if dim != bch_dimension(q, m, delta):
        raise CountMismatch(f"generator degree gives dimension {dim}, cosets {bch_dimension(q, m, delta)}")
    return CyclicCode(field=fld, length=n, generator=g, dimension=dim)


def trace_codeword(params: CodeParams, spec: TraceCodewordSpec) -> np.ndarray:
    """The word (Tr(sum lambda_j x^(q^j+1) + mu x) + eps)_{x=alpha^t}."""
    fld = field_for(params.q, params.m)
    form = TraceQuadraticForm(fld, params.i, spec.lambdas)
    word = form.value_vec()
    F = fld.base
    if spec.mu:
        k = int(fld.log_index[spec.mu])
        lin = fld.trace_vec[(np.arange(fld.n) + k) % fld.n]
        word = F.add[word, lin].astype(np.int64)
    if spec.eps:
        word = F.add[word, spec.eps].astype(np.int64)
    return word


def prm_code(q: int, m: int):
    """Yield ((mu, eps), word) over all q^(m+1) PRM codewords."""
    fld = field_for(q, m)
    F = fld.base
    t = np.arange(fld.n)
    for mu in range(fld.size):
        if mu == 0:
            base = np.zeros(fld.n, dtype=np.int64)
        else:
            k = int(fld.log_index[mu])
            base = fld.trace_vec[(t + k) % fld.n]
        for eps in range(q):
            word = F.add[base, eps].astype(np.int64) if eps else base
            yield (mu, eps), word


def coset_decomposition(params: CodeParams):
    """Yield (form, words) per member of schemes.enumerate_family (under
    schemes.DEFAULT_BUDGET); words generates the whole PRM coset of that
    representative as ((mu, eps), word) pairs."""
    members = enumerate_family(FamilySpec.quadratic(params.q, params.m, params.i))
    F = field_for(params.q, params.m).base

    def coset_words(form: TraceQuadraticForm):
        qv = form.value_vec()
        for (mu, eps), prm_word in prm_code(params.q, params.m):
            yield (mu, eps), F.add[qv, prm_word].astype(np.int64)

    for form in members:
        yield form, coset_words(form)


def word_to_polynomial(word: np.ndarray) -> list[int]:
    return gfarith.poly_trim([int(c) for c in word])


def word_in_code(word: np.ndarray, code: CyclicCode) -> bool:
    """Membership by polynomial-division residue against the generator."""
    F = code.field.base
    _, rem = gfarith.poly_divmod(F, word_to_polynomial(word), code.generator)
    return not rem


def cyclic_shift(word: np.ndarray, k: int = 1) -> np.ndarray:
    return np.roll(word, k)
