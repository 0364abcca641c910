"""Closed-form weight enumerators and their assembly.

T(Z) is the enumerator of the punctured first-order (generalized)
Reed-Muller code; U_{r,tau}(Z) (odd q) and W_{r,tau}(Z) (even q) are the
enumerators of one PRM coset whose representative quadratic form has the
given rank and type.  The full odd-q code enumerator is
T + sum a_{r,tau} U_{r,tau} with the a's from the closed-form inner
distribution; for even q only the minimum distance is certified, via a
witness member of the right rank and type.

Every closed count of a coset comes from one table: the frequencies of
N(Q+L+c), the number of zeros of Q+L+c, over all linear functions L for
one constant c (the paper's appendix tables).  The word Q+L+c has weight
q^m - N(Q+L+c) when c = 0 and q^m - 1 - N(Q+L+c) when c != 0, so U and W
are read off the c = 0 table and the sum of the c != 0 tables.  The scalar
square-class bookkeeping of the appendix lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .cyclotomic import CodeParams
from .bchcode import TraceCodewordSpec, trace_codeword
from .errors import (
    CountMismatch,
    EvenCharacteristic,
    ForbiddenRankType,
    NegativeEntry,
    NonIntegralResult,
    OutOfRange,
    RankZero,
    WitnessNotFound,
)
from .forms import (
    RankType,
    all_rank_types,
    classify_quadratic,
    type_sign,
)
from .gfarith import small_field
from .schemes import DEFAULT_BUDGET, EnumerationBudget, FamilySpec, enumerate_family, schmidt_for_family


@dataclass
class WeightEnumerator:
    counts: dict[int, int]
    length: int

    def total(self) -> int:
        return sum(self.counts.values())

    def min_positive_weight(self) -> int:
        return min(w for w in self.counts if w > 0)

    def add_scaled(self, other: "WeightEnumerator", factor: int) -> None:
        for w, c in other.counts.items():
            self.counts[w] = self.counts.get(w, 0) + factor * c


def _frequencies(pairs) -> dict[int, int]:
    """Merge (key, frequency) pairs, dropping zeros; a negative frequency raises."""
    counts: dict[int, int] = {}
    for k, c in pairs:
        if c < 0:
            raise NegativeEntry(f"negative frequency {c} at {k}")
        if c:
            counts[k] = counts.get(k, 0) + c
    return counts


def _enumerator(length: int, pairs) -> WeightEnumerator:
    return WeightEnumerator(counts=_frequencies(pairs), length=length)


def _checked_total(enum: WeightEnumerator, total: int) -> WeightEnumerator:
    if enum.total() != total:
        raise CountMismatch(f"closed-form enumerator counts {enum.total()} words, expected {total}")
    return enum


def prm_enumerator(q: int, m: int) -> WeightEnumerator:
    """T(Z) = 1 + (q-1)(q^m-1) Z^(A-1) + (q^m-1) Z^A + (q-1) Z^n, A = q^m - q^(m-1)."""
    n = q ** m - 1
    A = q ** m - q ** (m - 1)
    enum = _enumerator(
        n,
        [
            (0, 1),
            (A - 1, (q - 1) * (q ** m - 1)),
            (A, q ** m - 1),
            (n, q - 1),
        ],
    )
    return _checked_total(enum, q ** (m + 1))


def _coset_enumerator(q: int, m: int, rt: RankType) -> WeightEnumerator:
    """The q^(m+1) words Q+L+c of one PRM coset, weighed by the rule in the
    module docstring."""
    if rt.rank == 0:
        raise RankZero("rank-0 coset is PRM itself; use prm_enumerator")
    _check_rank_type(q, m, rt)
    pairs = [(q ** m - N, f) for N, f in _c_table(q, m, rt, 0).items()]
    pairs += [(q ** m - 1 - N, f) for N, f in _nonzero_sum(q, m, rt).items()]
    return _checked_total(_enumerator(q ** m - 1, pairs), q ** (m + 1))


def coset_enumerator_odd(q: int, m: int, rt: RankType) -> WeightEnumerator:
    """U_{r,tau}(Z) for odd q, rank >= 1."""
    if q % 2 == 0:
        raise EvenCharacteristic("U tables are for odd q")
    return _coset_enumerator(q, m, rt)


def coset_enumerator_even(q: int, m: int, rt: RankType) -> WeightEnumerator:
    """W_{2r,0}, W_{2r+1,1} or W_{2r,2} for even q, rank >= 1."""
    if q % 2:
        raise EvenCharacteristic("W tables are for even q")
    return _coset_enumerator(q, m, rt)


def code_enumerator_odd(params: CodeParams) -> WeightEnumerator:
    """Full weight enumerator T + sum a_{r,tau} U_{r,tau} for odd q."""
    q, m, i = params.q, params.m, params.i
    if q % 2 == 0:
        raise EvenCharacteristic("the full enumerator is closed-form for odd q only")
    spec = FamilySpec("S1" if m % 2 else "S2", q, m, i)
    inner = schmidt_for_family(spec)
    enum = prm_enumerator(q, m)
    for (rank, tau), count in inner.entries.items():
        if rank == 0:
            continue
        enum.add_scaled(coset_enumerator_odd(q, m, RankType(rank, tau)), count)
    _checked_total(enum, q ** params.dimension)
    if enum.min_positive_weight() != params.delta_i:
        raise CountMismatch(
            f"closed-form minimum weight {enum.min_positive_weight()} != delta_i {params.delta_i}"
        )
    return enum


def min_distance_even(params: CodeParams, budget: EnumerationBudget = DEFAULT_BUDGET):
    """Minimum distance delta_i for even q with an explicit witness.

    Scans the family, drawn from enumerate_family under its budget, in
    lambda-lexicographic order for a member of rank 2m-2i-1 type 1 or rank
    2m-2i-2 type 2, checks no nonzero member has rank 2m-2i-2 type 0
    (ForbiddenRankType), and pins a coset word of weight exactly delta_i.
    Returns (distance, witness dict).
    """
    q, m, i = params.q, params.m, params.i
    if q % 2:
        raise EvenCharacteristic("min_distance_even needs even q")
    rank = 2 * m - 2 * i - 2
    witness_form = witness_rt = None
    for form in enumerate_family(FamilySpec.quadratic(q, m, i), budget):
        rt = classify_quadratic(form)
        # at m = 2 the forbidden rank is 0: the zero member, whose coset
        # PRM has least weight q^m - q^(m-1) - 1 > delta_i, is exempt
        if (rt.rank, rt.type) == (rank, 0) and any(form.lambdas):
            raise ForbiddenRankType(f"family member {form.lambdas} has forbidden rank {rank} type 0")
        if witness_form is None and (rt.rank, rt.type) in ((rank + 1, 1), (rank, 2)):
            witness_form, witness_rt = form, rt
    if witness_form is None:
        raise WitnessNotFound(f"no rank/type witness in the family for ({q},{m},{i})")
    field = witness_form.field
    # weights of all q^(m+1) words of the witness coset: row 0 is mu = 0,
    # row 1+k is mu = alpha^k, columns are epsilon
    table = kernels.coset_weight_table(witness_form.value_vec(), *kernels.field_inputs(field))
    hits = np.argwhere(table == params.delta_i)
    if hits.size == 0:
        raise WitnessNotFound("witness coset contains no word of weight delta_i")
    row, eps = (int(v) for v in hits[0])
    mu = 0 if row == 0 else int(field.exp_index[row - 1])
    word = trace_codeword(params, TraceCodewordSpec(witness_form.lambdas, mu, eps))
    witness_word = int(np.count_nonzero(word))
    if witness_word != params.delta_i:
        raise CountMismatch("witness recount disagrees")  # internal bug
    witness = {
        "lambdas": list(witness_form.lambdas),
        "rank": witness_rt.rank,
        "type": witness_rt.type,
        "mu": mu,
        "eps": eps,
        "weight": witness_word,
    }
    return params.delta_i, witness


# ---------------------------------------------------------------------------
# appendix: N(Q+L+c) frequency tables
# ---------------------------------------------------------------------------


def _check_rank_type(q: int, m: int, rt: RankType) -> None:
    small_field(q)  # NotPrime unless q is a prime power
    if rt not in all_rank_types(q, m):
        raise OutOfRange(f"no quadratic form of rank {rt.rank} and type {rt.type} on GF({q})^{m}")


def _c_table(q: int, m: int, rt: RankType, s: int | None) -> dict[int, int]:
    """Frequencies of N(Q+L+c) over the q^m linear functions L, for one c.

    s = 0 for c = 0, s = eta(c) for odd q, s = None for any c != 0 when q
    is even.  Each N is q^(m-1) + t*eps*off, eps = type_sign(q, rt).  Odd
    rank: s enters only as eps*s (the nonsquare table of (r, tau) is the
    square table of (r, -tau)), and the even-q type-1 table for c != 0 is
    the mean of the tables for s = +1 and -1, so s = None counts as 0.
    Even rank: only whether c = 0 matters.
    """
    r = rt.rank
    eps = type_sign(q, rt)
    if r % 2:
        f, off = q ** ((r - 1) // 2), q ** (m - (r + 1) // 2)
        twice = (q - 1) * q ** (r - 1)
        if s == 0:
            rows = [(0, q ** m - q ** r + q ** (r - 1)),
                    (1, (twice + (q - 1) * eps * f) // 2),
                    (-1, (twice - (q - 1) * eps * f) // 2)]
        else:
            s = s or 0
            rows = [(0, q ** m - q ** r + q ** (r - 1) + eps * f * s),
                    (1, (twice - eps * f * (1 + s)) // 2),
                    (-1, (twice + eps * f * (1 - s)) // 2)]
    else:
        f, off = q ** ((r - 2) // 2), q ** (m - (r + 2) // 2)
        u = q - 1 if s == 0 else -1  # upsilon(c)
        rows = [(0, q ** m - q ** r),
                (q - 1, q ** (r - 1) + u * eps * f),
                (-1, (q - 1) * q ** (r - 1) - u * eps * f)]
    table = _frequencies((q ** (m - 1) + t * eps * off, freq) for t, freq in rows)
    if sum(table.values()) != q ** m:
        raise CountMismatch(f"N(Q+L+c) table counts {sum(table.values())} functions, expected {q ** m}")
    return table


def _nonzero_sum(q: int, m: int, rt: RankType) -> dict[int, int]:
    """The c tables summed over all q-1 nonzero c: (q-1)/2 copies of each
    square class for odd q, q-1 copies of the one class for even q."""
    classes = (1, -1) if q % 2 else (None,)
    copies = (q - 1) // len(classes)
    return _frequencies((N, copies * f) for s in classes for N, f in _c_table(q, m, rt, s).items())


C_CLASSES_ODD = ("zero", "square", "nonsquare", "nonzero-sum")
C_CLASSES_EVEN = ("zero", "nonzero", "nonzero-sum")


def check_c_class(q: int, c_class: str) -> None:
    """OutOfRange unless c_class is one of the classes for the parity of q."""
    classes = C_CLASSES_ODD if q % 2 else C_CLASSES_EVEN
    if c_class not in classes:
        raise OutOfRange(f"{'odd' if q % 2 else 'even'} q c_class must be one of {classes}")


def appendix_frequency_tables(q: int, m: int, rt: RankType, c_class: str) -> dict[int, int]:
    """Closed-form frequencies of N(f) as f = Q+L+c ranges over all q^m
    homogeneous linear functions L (and over all nonzero c as well for the
    'nonzero-sum' class), for Q of the given rank and type.

    Odd q takes c_class in {zero, square, nonsquare, nonzero-sum}; even q
    in {zero, nonzero, nonzero-sum} ('nonzero' means any fixed c != 0).
    """
    if rt.rank == 0:
        raise RankZero("appendix tables need rank >= 1")
    _check_rank_type(q, m, rt)
    check_c_class(q, c_class)
    if c_class == "nonzero-sum":
        return _nonzero_sum(q, m, rt)
    return _c_table(q, m, rt, {"zero": 0, "square": 1, "nonsquare": -1, "nonzero": None}[c_class])


def intersection_table(q: int, b: int) -> tuple[int, ...]:
    """The nine intersection sizes of the diagonal {(h+b, h)} with the
    square-class cells of GF(q) x GF(q), keyed on the classes of b and -b."""
    F = small_field(q)
    if F.p == 2:
        raise EvenCharacteristic("square classes need odd q")

    def frac(num):
        if num % 4:
            raise NonIntegralResult(f"non-integral table entry {num}/4 at q={q}, b={b}")
        return num // 4

    if b == 0:
        h = (q - 1) // 2
        return (1, 0, 0, 0, h, 0, 0, 0, h)
    b_sq = b in F.squares
    nb_sq = F.neg_el(b) in F.squares
    if b_sq and nb_sq:
        return (0, 1, 0, 1, frac(q - 5), frac(q - 1), 0, frac(q - 1), frac(q - 1))
    if b_sq and not nb_sq:
        return (0, 0, 1, 1, frac(q - 3), frac(q - 3), 0, frac(q + 1), frac(q - 3))
    if not b_sq and nb_sq:
        return (0, 1, 0, 0, frac(q - 3), frac(q + 1), 1, frac(q - 3), frac(q - 3))
    return (0, 0, 1, 0, frac(q - 1), frac(q - 1), 1, frac(q - 1), frac(q - 5))


def intersection_table_census(q: int, b: int) -> tuple[int, ...]:
    """Direct count of the same nine intersections."""
    F = small_field(q)
    if F.p == 2:
        raise EvenCharacteristic("square classes need odd q")

    def cell(x):
        if x == 0:
            return 0
        return 1 if x in F.squares else 2

    counts = [0] * 9
    for h in range(q):
        counts[cell(F.add_el(h, b)) * 3 + cell(h)] += 1
    return tuple(counts)
