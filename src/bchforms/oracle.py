"""Brute-force ground truth.

Every closed formula in the package is tested against the enumerations
here.  Nothing in this module assumes any structural theorem: code weight
distributions come from walking all codewords (by trace message or by
information word), and rank/type censuses classify each family member one
by one.  The trace-route coset histogram and the appendix oracle read
N(Q+L+c) for every linear functional L and constant c off one Walsh table,
T[v, l] = #{x : Q(x) + l.x = v} (``kernels.walsh_table``), which is an
exact count, not a formula.  At even q the kernel takes it from the real
character sums of Q + l.x, by the orthogonality of the characters of
GF(q); at q = 2 the coset histogram reads T[0, l] = (2^m + W(l))/2 off
the spectrum W alone, which for m <= 8 is one matmul of the signs of Q by
a dense matrix cached per field.  At even q the value vector of Q is
summed slot by slot with XOR, GF(q) addition on element indices.  The
trace route uses one fact beyond counting: that mu -> Tr(mu x) is
GF(q)-linear, so the words of a coset are f + l.x + eps over all
functionals l.  The kernel checks at run time that the trace vector is a
linear m-sequence before it relies on this.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import numpy as np

from . import kernels
from .cyclotomic import CodeParams
from .errors import CountMismatch, OutOfRange
from .forms import CoefficientForm, family_slots, polarize
from .gfarith import FieldContext, digits, field_for, small_field
from .schemes import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    FamilySpec,
    InnerDistribution,
    _tally,
    enumerate_family,
    family_lambdas,
)
from .weights import WeightEnumerator, check_c_class

# trace_route_weights starts its thread pool only for odd q, from
# q^(m+2) = 2^15, a measure of one coset's one-hot transform.  Two threads
# / one, medians of 5-7 alternating runs on 2 cores, numpy's OpenBLAS at
# its default 2 threads.  Odd q: 2.8 at (3,6,2), 2.2 at (5,4,1) and 1.41
# at (3,7,3) (19683); 0.74-0.91 at (3,8,3) (59049), 0.77-0.85 at (5,5,2)
# and 0.65 at (3,10,4).  Even q runs the sign rounds, larger matmuls that
# OpenBLAS spreads over its own threads, and a second Python thread
# contends with those: 2.49 at (2,10,4), 1.86 at (2,12,5), 1.44 at
# (2,13,6), 0.79-1.06 at (2,14,6), 1.47-1.67 at (2,16,7), 2.05 at (4,5,2),
# 1.18-1.25 at (4,6,2), 1.41-1.43 at (4,8,3), 0.82-0.91 at (8,4,1) and
# 1.38 at (16,4,1).  (With OPENBLAS_NUM_THREADS=1, two threads ran 0.56-0.71
# of one at (2,14,6), (2,16,7) and (4,8,3).)
POOL_MIN_TRANSFORM = 1 << 15


def default_workers() -> int:
    return min(os.cpu_count() or 1, 8)


def qvec_tables(field: FieldContext, i: int) -> tuple[np.ndarray, np.ndarray]:
    """(index_rows, trace_rows2) of kernels.eval_qvec for the slots of
    Q1(i)/Q2(i): index_rows[s, t] = t*(q^j_s + 1) mod n, and trace_rows2[s]
    the slot's trace vector (half trace for the half slot) repeated twice."""
    q, n = field.q, field.n
    slots = family_slots(field.m, i)
    steps = np.array([(q ** s.j + 1) % n for s in slots], dtype=np.intp)
    index_rows = np.arange(n, dtype=np.intp) * steps[:, None] % n
    trace_rows2 = np.stack([np.tile(field.half_trace_vec if s.half else field.trace_vec, 2)
                            for s in slots])
    return index_rows, trace_rows2


def trace_route_weights(params: CodeParams, budget: EnumerationBudget = DEFAULT_BUDGET,
                        workers: int | None = None) -> WeightEnumerator:
    """Weight distribution of the whole code by scanning every coset of
    every family member (q^dimension words total).  The members are the
    lambda tuples of schemes.family_lambdas, under its budget.

    Each member's value vector is one kernels.eval_qvec call on tables
    built once per code (qvec_tables): the index rows t*(q^j+1) mod n of
    every slot and the slot trace rows repeated twice."""
    if workers is not None and workers < 1:
        raise OutOfRange(f"workers={workers} is not a positive thread count")
    q, m = params.q, params.m
    budget.check_codewords(q ** params.dimension)
    spec = FamilySpec.quadratic(q, m, params.i)
    members = family_lambdas(spec, budget)
    field = field_for(q, m)
    n = field.n
    log = field.log_index.tolist()  # log[0] = -1 marks a zero lambda
    index_rows, trace_rows2 = qvec_tables(field, params.i)
    trv2, pair, neg = kernels.field_inputs(field)

    def scan(lambdas) -> np.ndarray:
        counts = np.zeros(n + 1, dtype=np.int64)
        qv = np.empty(n, dtype=np.int64)
        for lams in lambdas:
            kernels.eval_qvec([log[v] for v in lams], index_rows, trace_rows2, pair, q, qv)
            kernels.coset_weight_counts(qv, trv2, pair, neg, counts)
        return counts

    # workers is a cap: the one-hot rounds of odd q release the GIL but the
    # numpy calls around them hold it, so a second thread pays only once one
    # coset's transform is long; the sign rounds of even q are left to
    # BLAS's own threads (timings at POOL_MIN_TRANSFORM)
    w = workers if workers is not None else default_workers()
    w = min(w, spec.size) if q % 2 and q ** (m + 2) >= POOL_MIN_TRANSFORM else 1
    if w == 1:
        counts = scan(members)
    else:
        # one iterator per thread: each worker slices its own member source
        bounds = [spec.size * t // w for t in range(w + 1)]
        with ThreadPoolExecutor(max_workers=w) as pool:
            parts = list(pool.map(lambda ab: scan(islice(family_lambdas(spec, budget), *ab)),
                                  zip(bounds[:-1], bounds[1:])))
        counts = np.sum(parts, axis=0)
    total = int(counts.sum())
    if total != q ** params.dimension:
        raise CountMismatch(f"enumerated {total} words, expected q^dim = {q ** params.dimension}")
    return WeightEnumerator(
        counts={w_: int(c) for w_, c in enumerate(counts) if c}, length=n
    )


# generator_route_weights holds its block of low-row combinations, and
# each slice of offsets, in at most this many GF(q) entries
_GENERATOR_BLOCK = 1 << 20


def generator_route_weights(code, budget: EnumerationBudget = DEFAULT_BUDGET) -> WeightEnumerator:
    """Weight distribution by iterating all information words against the
    generator-polynomial rows g(x) x^r, r < k.

    A word is a combination of the low rows, from one precomputed block of
    all q^low of them, plus a combination of the high rows, its offset: one
    addition gather of the block per offset.  The offsets are produced q^low
    at a time, so the block and each slice hold at most _GENERATOR_BLOCK
    entries: low = min(ceil(k/2), the largest l with q^l n <= _GENERATOR_BLOCK)."""
    field = code.field
    q, n, k = field.q, code.length, code.dimension
    budget.check_codewords(q ** k)
    F = field.base
    rows = np.zeros((k, n), dtype=np.uint8)
    for r in range(k):
        rows[r, r : r + len(code.generator)] = code.generator  # deg g = n-k, so shifts never wrap
    low = 0
    while low < (k + 1) // 2 and q ** (low + 1) * n <= _GENERATOR_BLOCK:
        low += 1
    block = F.matmul(digits(np.arange(q ** low), q, low), rows[:low])
    high = k - low
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, q ** high, q ** low):
        idx = np.arange(lo, min(lo + q ** low, q ** high))
        for offset in F.matmul(digits(idx, q, high), rows[low:]):
            counts += np.bincount(np.count_nonzero(F.add[block, offset], axis=1), minlength=n + 1)
    return WeightEnumerator(counts={w: int(c) for w, c in enumerate(counts) if c}, length=n)


def rank_type_census(spec: FamilySpec, budget: EnumerationBudget = DEFAULT_BUDGET) -> InnerDistribution:
    """Classify every family member independently and tally.

    The members are those of the Q family with the same (q, m, i), drawn
    from enumerate_family under its budget.  The S/A censuses classify
    their polarizations, which is a different code path from
    schemes.census_inner_distribution (bilinear parametrization), so the
    two never validate themselves.
    """
    members = enumerate_family(FamilySpec.quadratic(spec.q, spec.m, spec.i), budget)
    if not spec.kind.startswith("Q"):
        members = (polarize(form) for form in members)
    return _tally(spec, members)


def appendix_census(q: int, m: int, coeff_form: CoefficientForm, c_class: str,
                    budget: EnumerationBudget = DEFAULT_BUDGET) -> dict[int, int]:
    """Frequencies of N(Q+L+c) over all q^m linear functions L, with c
    ranging over one square class (or summed over GF(q)*): N(Q+L+c) is
    T[-c, L] of the Walsh table of Q, counted per c.  c_class is one of
    weights.C_CLASSES_ODD / C_CLASSES_EVEN for the parity of q."""
    budget.check_field(q ** m)
    F = small_field(q)
    check_c_class(q, c_class)
    if c_class == "nonzero-sum":
        cs = list(range(1, q))
    elif c_class == "nonsquare":
        cs = [min(set(range(1, q)) - F.squares)]
    else:
        cs = [0 if c_class == "zero" else 1]  # 1 stands for "square" and "nonzero"
    T = kernels.walsh_table(coeff_form.values_by_index(), q, m)
    out: dict[int, int] = {}
    for c in cs:
        for z, freq in zip(*np.unique(T[F.neg[c]], return_counts=True)):
            out[int(z)] = out.get(int(z), 0) + int(freq)
    return out
