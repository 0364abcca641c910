"""Closed-form weight enumerators and their assembly.

T(Z) is the enumerator of the punctured first-order (generalized)
Reed-Muller code; U_{r,tau}(Z) (odd q) and W_{r,tau}(Z) (even q) are the
enumerators of one PRM coset whose representative quadratic form has the
given rank and type.  The full odd-q code enumerator is
T + sum a_{r,tau} U_{r,tau} with the a's from the closed-form inner
distribution; for even q only the minimum distance is certified, via a
witness member of the right rank and type.

The appendix material (zero counts of Q+L+c over all linear functions L)
lives here too, both the closed frequency tables and the scalar
square-class bookkeeping they rest on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .cyclotomic import CodeParams
from .errors import (
    BchFormsError,
    BudgetExceeded,
    CountMismatch,
    EvenCharacteristic,
    NegativeEntry,
    NonIntegralResult,
    OutOfRange,
    RankZero,
    WitnessNotFound,
)
from .forms import RankType, TraceQuadraticForm, all_rank_types, classify_quadratic, family_size, iter_family
from .gfarith import FieldContext, eta_minus_one, field_for, small_field
from .schemes import MAX_FAMILY_MEMBERS, FamilySpec, schmidt_for_family


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

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "counts": {str(w): str(c) for w, c in sorted(self.counts.items())},
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightEnumerator)
            and self.length == other.length
            and self.counts == other.counts
        )


def _enumerator(length: int, pairs) -> WeightEnumerator:
    counts: dict[int, int] = {}
    for w, c in pairs:
        if c < 0:
            raise NegativeEntry(f"negative frequency {c} at weight {w}")
        if c:
            counts[w] = counts.get(w, 0) + c
    return WeightEnumerator(counts=counts, length=length)


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


def coset_enumerator_odd(q: int, m: int, rt: RankType) -> WeightEnumerator:
    """U_{r,tau}(Z) for odd q, rank >= 1."""
    if q % 2 == 0:
        raise EvenCharacteristic("U tables are for odd q")
    if rt.rank == 0:
        raise RankZero("rank-0 coset is PRM itself; use prm_enumerator")
    n = q ** m - 1
    A = q ** m - q ** (m - 1)
    r, tau = rt.rank, rt.type
    em1 = eta_minus_one(q)
    if r % 2:
        sg = tau * em1 ** ((r - 1) // 2)
        sw = q ** (m - (r + 1) // 2)
        sf = q ** ((r - 1) // 2)
        pairs = [
            (A - sg * sw - 1, (q - 1) * ((q - 1) * q ** (r - 1) - sg * sf) // 2),
            (A - sg * sw, (q - 1) * (q ** (r - 1) + sg * sf) // 2),
            (A + sg * sw - 1, (q - 1) * ((q - 1) * q ** (r - 1) + sg * sf) // 2),
            (A + sg * sw, (q - 1) * (q ** (r - 1) - sg * sf) // 2),
            (A - 1, (q - 1) * (q ** m - q ** r + q ** (r - 1))),
            (A, q ** m - q ** r + q ** (r - 1)),
        ]
    else:
        sg = tau * em1 ** (r // 2)
        sw = q ** (m - (r + 2) // 2)
        sf = q ** ((r - 2) // 2)
        pairs = [
            (A - sg * sw * (q - 1) - 1, (q - 1) * (q ** (r - 1) - sg * sf)),
            (A - sg * sw * (q - 1), q ** (r - 1) + sg * sf * (q - 1)),
            (A - 1, (q - 1) * (q ** m - q ** r)),
            (A, q ** m - q ** r),
            (A + sg * sw - 1, (q - 1) * ((q - 1) * q ** (r - 1) + sg * sf)),
            (A + sg * sw, (q - 1) * (q ** (r - 1) - sg * sf)),
        ]
    enum = _enumerator(n, pairs)
    return _checked_total(enum, q ** (m + 1))


def coset_enumerator_even(q: int, m: int, rt: RankType) -> WeightEnumerator:
    """W_{2r,0}, W_{2r+1,1} or W_{2r,2} for even q, rank >= 1."""
    if q % 2:
        raise EvenCharacteristic("W tables are for even q")
    if rt.rank == 0:
        raise RankZero("rank-0 coset is PRM itself; use prm_enumerator")
    n = q ** m - 1
    A = q ** m - q ** (m - 1)
    if rt.type == 1:
        r = (rt.rank - 1) // 2
        s = q ** (m - r - 1)
        pairs = [
            (A - s - 1, (q - 1) * (q ** (2 * r + 1) - q ** (2 * r) - q ** r) // 2),
            (A - s, (q - 1) * (q ** (2 * r) + q ** r) // 2),
            (A - 1, (q - 1) * (q ** m - q ** (2 * r + 1) + q ** (2 * r))),
            (A, q ** m - q ** (2 * r + 1) + q ** (2 * r)),
            (A + s - 1, (q - 1) * (q ** (2 * r + 1) - q ** (2 * r) + q ** r) // 2),
            (A + s, (q - 1) * (q ** (2 * r) - q ** r) // 2),
        ]
    elif rt.type == 0:
        r = rt.rank // 2
        s = q ** (m - r - 1)
        pairs = [
            (A - s * (q - 1) - 1, (q - 1) * (q ** (2 * r - 1) - q ** (r - 1))),
            (A - s * (q - 1), q ** (2 * r - 1) + q ** (r - 1) * (q - 1)),
            (A - 1, (q - 1) * (q ** m - q ** (2 * r))),
            (A, q ** m - q ** (2 * r)),
            (A + s - 1, (q - 1) * ((q - 1) * q ** (2 * r - 1) + q ** (r - 1))),
            (A + s, (q - 1) * (q ** (2 * r - 1) - q ** (r - 1))),
        ]
    elif rt.type == 2:
        r = rt.rank // 2
        s = q ** (m - r - 1)
        pairs = [
            (A - s - 1, (q - 1) * ((q - 1) * q ** (2 * r - 1) - q ** (r - 1))),
            (A - s, (q - 1) * (q ** (2 * r - 1) + q ** (r - 1))),
            (A - 1, (q - 1) * (q ** m - q ** (2 * r))),
            (A, q ** m - q ** (2 * r)),
            (A + s * (q - 1) - 1, (q - 1) * (q ** (2 * r - 1) + q ** (r - 1))),
            (A + s * (q - 1), q ** (2 * r - 1) - q ** (r - 1) * (q - 1)),
        ]
    else:
        raise ValueError(f"even-q type must be 0, 1 or 2, got {rt.type}")
    enum = _enumerator(n, pairs)
    return _checked_total(enum, q ** (m + 1))


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


def coset_words_weight_table(field: FieldContext, form: TraceQuadraticForm) -> np.ndarray:
    """Weights of all q^(m+1) words of the coset of Q; row 0 is mu = 0,
    row 1+k is mu = alpha^k, columns are epsilon."""
    F = field.base
    qv = form.value_vec()
    trv2 = np.concatenate([field.trace_vec, field.trace_vec])
    pair = F.add.astype(np.int64).ravel()
    neg = F.neg.astype(np.int64)
    return kernels.coset_weight_table(qv, trv2, pair, neg)


def min_distance_even(params: CodeParams):
    """Minimum distance delta_i for even q with an explicit witness.

    Scans the family in lambda-lexicographic order for a member of rank
    2m-2i-1 type 1 or rank 2m-2i-2 type 2, checks no member has rank
    2m-2i-2 type 0, and pins a coset word of weight exactly delta_i.
    Returns (distance, witness dict).
    """
    q, m, i = params.q, params.m, params.i
    if q % 2:
        raise EvenCharacteristic("min_distance_even needs even q")
    if family_size(q, m, i) > MAX_FAMILY_MEMBERS:
        raise BudgetExceeded(
            f"scan of {family_size(q, m, i)} family members exceeds the limit of {MAX_FAMILY_MEMBERS}"
        )
    field = field_for(q, m)
    target_rank1 = 2 * m - 2 * i - 1
    target_rank2 = 2 * m - 2 * i - 2
    witness_form = None
    witness_rt = None
    for form in iter_family(field, i):
        rt = classify_quadratic(form)
        if rt == RankType(target_rank2, 0):
            raise BchFormsError(
                f"family member {form.lambdas} has forbidden rank {target_rank2} type 0"
            )
        if witness_form is None and (rt == RankType(target_rank1, 1) or rt == RankType(target_rank2, 2)):
            witness_form = form
            witness_rt = rt
    if witness_form is None:
        raise WitnessNotFound(f"no rank/type witness in the family for ({q},{m},{i})")
    table = coset_words_weight_table(field, witness_form)
    hits = np.argwhere(table == params.delta_i)
    if hits.size == 0:
        raise WitnessNotFound("witness coset contains no word of weight delta_i")
    row, eps = (int(v) for v in hits[0])
    mu = 0 if row == 0 else int(field.exp_index[row - 1])
    # recount the witness word directly
    F = field.base
    qv = witness_form.value_vec()
    tr = field.trace_vec
    if mu == 0:
        lin = np.zeros(field.n, dtype=np.int64)
    else:
        k = int(field.log_index[mu])
        lin = tr[(np.arange(field.n) + k) % field.n]
    word = F.add[F.add[qv, lin], eps]
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

C_CLASSES_ODD = ("zero", "square", "nonsquare", "nonzero-sum")
C_CLASSES_EVEN = ("zero", "nonzero", "nonzero-sum")


def appendix_frequency_tables(q: int, m: int, rt: RankType, c_class: str) -> dict[int, int]:
    """Closed-form frequencies of N(f) as f = Q+L+c ranges over all q^m
    homogeneous linear functions L (and over all nonzero c as well for the
    'nonzero-sum' class), for Q of the given rank and type.

    Odd q takes c_class in {zero, square, nonsquare, nonzero-sum}; even q
    in {zero, nonzero, nonzero-sum} ('nonzero' means any fixed c != 0).
    """
    if rt.rank == 0:
        raise RankZero("appendix tables need rank >= 1")
    F = small_field(q)
    if rt not in all_rank_types(q, m):
        raise OutOfRange(f"no quadratic form of rank {rt.rank} and type {rt.type} on GF({q})^{m}")
    base = q ** (m - 1)
    out: dict[int, int] = {}

    def put(value, freq):
        if freq < 0:
            raise NegativeEntry(f"negative frequency {freq}")
        if freq:
            out[value] = out.get(value, 0) + freq

    if F.p != 2:
        if c_class not in C_CLASSES_ODD:
            raise OutOfRange(f"odd q c_class must be one of {C_CLASSES_ODD}")
        r, tau = rt.rank, rt.type
        em1 = eta_minus_one(q)
        if r % 2:
            sg = tau * em1 ** ((r - 1) // 2)
            off = q ** (m - (r + 1) // 2)
            f_off = q ** ((r - 1) // 2)
            plain = q ** m - q ** r + q ** (r - 1)
            half = (q - 1) * q ** (r - 1) // 2
            if c_class == "zero":
                put(base, plain)
                put(base + sg * off, half + sg * f_off * (q - 1) // 2)
                put(base - sg * off, half - sg * f_off * (q - 1) // 2)
            elif c_class == "square":
                put(base, plain + sg * f_off)
                put(base + sg * off, half - sg * f_off)
                put(base - sg * off, half)
            elif c_class == "nonsquare":
                put(base, plain - sg * f_off)
                put(base + sg * off, half)
                put(base - sg * off, half + sg * f_off)
            else:
                put(base, (q - 1) * plain)
                put(base + sg * off, (q - 1) * ((q - 1) * q ** (r - 1) - sg * f_off) // 2)
                put(base - sg * off, (q - 1) * ((q - 1) * q ** (r - 1) + sg * f_off) // 2)
        else:
            sg = tau * em1 ** (r // 2)
            off = q ** (m - (r + 2) // 2)
            f_off = q ** ((r - 2) // 2)
            plain = q ** m - q ** r
            if c_class == "zero":
                put(base, plain)
                put(base + sg * off * (q - 1), q ** (r - 1) + sg * f_off * (q - 1))
                put(base - sg * off, (q - 1) * (q ** (r - 1) - sg * f_off))
            elif c_class in ("square", "nonsquare", "nonzero"):
                put(base, plain)
                put(base + sg * off * (q - 1), q ** (r - 1) - sg * f_off)
                put(base - sg * off, (q - 1) * q ** (r - 1) + sg * f_off)
            else:
                put(base, (q - 1) * plain)
                put(base + sg * off * (q - 1), (q - 1) * (q ** (r - 1) - sg * f_off))
                put(base - sg * off, (q - 1) * ((q - 1) * q ** (r - 1) + sg * f_off))
        return out

    if c_class not in C_CLASSES_EVEN:
        raise OutOfRange(f"even q c_class must be one of {C_CLASSES_EVEN}")
    if rt.type == 1:
        r = (rt.rank - 1) // 2
        off = q ** (m - r - 1)
        plain = q ** m - q ** (2 * r + 1) + q ** (2 * r)
        if c_class == "zero":
            put(base, plain)
            put(base + off, (q - 1) * (q ** (2 * r) + q ** r) // 2)
            put(base - off, (q - 1) * (q ** (2 * r) - q ** r) // 2)
        elif c_class == "nonzero":
            put(base, plain)
            put(base + off, (q ** (2 * r + 1) - q ** (2 * r) - q ** r) // 2)
            put(base - off, (q ** (2 * r + 1) - q ** (2 * r) + q ** r) // 2)
        else:
            put(base, (q - 1) * plain)
            put(base + off, (q - 1) * (q ** (2 * r + 1) - q ** (2 * r) - q ** r) // 2)
            put(base - off, (q - 1) * (q ** (2 * r + 1) - q ** (2 * r) + q ** r) // 2)
        return out
    r = rt.rank // 2
    off = q ** (m - r - 1)
    plain = q ** m - q ** (2 * r)
    sign = 1 if rt.type == 0 else -1
    if c_class == "zero":
        put(base, plain)
        put(base + sign * off * (q - 1), q ** (2 * r - 1) + sign * q ** (r - 1) * (q - 1))
        put(base - sign * off, (q - 1) * (q ** (2 * r - 1) - sign * q ** (r - 1)))
    elif c_class == "nonzero":
        put(base, plain)
        put(base + sign * off * (q - 1), q ** (2 * r - 1) - sign * q ** (r - 1))
        put(base - sign * off, (q - 1) * q ** (2 * r - 1) + sign * q ** (r - 1))
    else:
        put(base, (q - 1) * plain)
        put(base + sign * off * (q - 1), (q - 1) * (q ** (2 * r - 1) - sign * q ** (r - 1)))
        put(base - sign * off, (q - 1) * ((q - 1) * q ** (2 * r - 1) + sign * q ** (r - 1)))
    return out


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
