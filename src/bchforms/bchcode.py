"""BCH codes as generator polynomials and as trace-evaluation codes.

Codeword coordinates are ordered by x = alpha^0, alpha^1, ..., so the
t-th coordinate of a trace word is f(alpha^t); weight data is order
independent but emitted codewords must be reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfarith
from .cyclotomic import CodeParams, bch_dimension, cyclotomic_coset, iter_coset_leaders
from .errors import BchFormsError, CountMismatch, OutOfRange
from .forms import TraceQuadraticForm
from .gfarith import FieldContext, field_for


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
    g = [1]
    for s, _ in iter_coset_leaders(q, m, 1):  # the cosets meeting [1, delta)
        if s >= delta:
            break
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

