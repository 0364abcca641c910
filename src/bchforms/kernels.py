"""Hot counting kernels behind the exhaustive oracles (numpy only).

``walsh_table`` is a q-ary Walsh transform over GF(q)^m.  Starting from
A[x, v] = [f(x) = v], rounds that each transform a group of k coordinates
with one float32 matmul against a 0/1 matrix give

    T[v, l] = #{x in GF(q)^m : f(x) + l.x = v}

for every GF(q)-linear functional l: ceil(m/k) rounds of q^(m+k+2)
multiply-adds on q^(m+1) entries, exact because every value is a count of
at most q^m <= 2^24 points.  ``coset_weight_counts`` histograms the
q^(m+1) words Q(x) + Tr(mu x) + eps of one PRM coset from it:
mu -> Tr(mu .) runs over all linear functionals, so the coset is
{f + l.x + eps}, and the word (l, eps) has weight
n - (T[-eps, l] - [eps = 0]).  This is the q-ary form of reading a
first-order Reed-Muller coset's weights off its Walsh spectrum
(MacWilliams & Sloane, The Theory of Error-Correcting Codes, ch. 14).

The coordinates of x = alpha^t are read from the trace vector itself,
x_b = trv[t+b] for b < m.  That is a linear coordinate system only if trv
is an m-sequence; each distinct trace vector is checked once
(``NotAnMSequence`` otherwise) and its coordinate permutation cached in a
plan.  ``field_inputs`` hands out the plan's own ``trv2`` and ``pair``,
validated and read-only, and a kernel given exactly those arrays finds its
plan by identity, with no content comparison.  Any other array (a copy, a
caller-built vector) is matched by content and checked as before.

Conventions shared by all kernels:

* GF(q) values are int64 in [0, q); ``pair`` is the flattened q*q addition
  table (``pair[a*q+b] = a+b`` in GF(q)) and ``neg`` the negation table.
* Codeword coordinates are indexed by the exponent t of x = alpha^t, so a
  linear term Tr(mu x) with mu = alpha^k is the trace vector shifted by k;
  ``trv2`` is the trace vector repeated twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BchFormsError, NotAnMSequence
from .gfarith import digits, small_field


def use_numba() -> bool:
    # numpy is the only backend; kept because callers report the backend
    return False


def field_inputs(field):
    """(trv2, pair, neg) of a FieldContext, as the coset kernels take them:
    trv2 and pair are the validated, read-only arrays of the field's plan."""
    F = field.base
    plan = _plan(np.concatenate([field.trace_vec, field.trace_vec]), F.add.ravel(), F.q)
    return plan.trv2, plan.pair, F.neg.astype(np.int64)


def eval_qvec(lam_logs, index_rows, trace_rows2, pair, q, out):
    """Fill out[t] = Q(alpha^t) = sum_s trace_rows2[s, lam_logs[s] + index_rows[s, t]]
    summed in GF(q); lam_logs[s] = -1 marks a zero lambda.  index_rows[s, t]
    = t*(q^j_s + 1) mod n and each trace row is repeated twice, so the sum
    of a log in [0, n) and an index needs no reduction mod n."""
    n = out.shape[0]
    acc = None
    for s, l in enumerate(lam_logs):
        if l >= 0:
            term = trace_rows2[s, l:l + n][index_rows[s]]
            acc = term if acc is None else pair[acc * q + term]
    out[:] = 0 if acc is None else acc


@dataclass(frozen=True)
class _Plan:
    trv2: np.ndarray
    pair: np.ndarray
    m: int
    pos: np.ndarray    # pos[t]: coordinate index sum_b x_b q^b of alpha^t
    rows: np.ndarray   # rows[0] = 0 (mu = 0), rows[1+k]: index of Tr(alpha^k .)


# rebound, never mutated, so threads read a consistent snapshot; two
# threads adding at once may drop a plan, which is then only rebuilt
_PLANS: tuple[_Plan, ...] = ()


def _plan(trv2, pair, q: int) -> _Plan:
    """The cached plan of this trace vector, built (and checked) on first use;
    the plan's own arrays are matched by identity, any other by content."""
    global _PLANS
    plans = _PLANS
    for plan in plans:
        if trv2 is plan.trv2 and pair is plan.pair:
            return plan
    for plan in plans:
        if np.array_equal(plan.trv2, trv2) and np.array_equal(plan.pair, pair):
            return plan
    plan = _build_plan(np.array(trv2, dtype=np.int64), np.array(pair, dtype=np.int64), q)
    _PLANS = (*_PLANS[-15:], plan)
    return plan


def _build_plan(trv2: np.ndarray, pair: np.ndarray, q: int) -> _Plan:
    """Check that the trace vector is an m-sequence and precompute its
    coordinates."""
    F = small_field(q)
    add, mul = F.add.astype(np.int64), F.mul.astype(np.int64)
    if not np.array_equal(pair, add.ravel()):
        raise BchFormsError(f"pair is not the addition table of GF({q})")
    n = trv2.shape[0] // 2
    m = max(1, round(np.log(n + 1) / np.log(q)))
    if q ** m != n + 1 or trv2.shape != (2 * n,) or not np.array_equal(trv2[:n], trv2[n:]):
        raise NotAnMSequence(f"trace vector of length {n} is not q^m - 1 periodic for q = {q}")
    if trv2.min() < 0 or trv2.max() >= q:
        raise NotAnMSequence("trace vector entries outside GF(q)")
    qpow = q ** np.arange(m, dtype=np.int64)
    win = np.lib.stride_tricks.sliding_window_view(trv2, m + 1)[:n]
    pos = win[:, :m] @ qpow
    order = np.argsort(pos)
    if not np.array_equal(pos[order], np.arange(1, n + 1)):
        raise NotAnMSequence("the length-m windows of the trace vector are not all distinct and nonzero")
    unit = order[qpow - 1]  # t_b: the position whose window is the unit vector e_b
    acc = np.zeros(n, dtype=np.int64)
    for b in range(m):
        acc = add[acc, mul[trv2[unit[b] + m], win[:, b]]]
    if not np.array_equal(acc, win[:, m]):
        raise NotAnMSequence("the trace vector does not satisfy a linear recurrence of order m")
    # Tr(alpha^k x) at x = e_j is trv[t_j + k]: the functional's coordinates
    rows = np.zeros(n + 1, dtype=np.int64)
    rows[1:] = trv2[unit[:, None] + np.arange(n)].T @ qpow
    trv2.setflags(write=False)
    pair.setflags(write=False)
    return _Plan(trv2=trv2, pair=pair, m=m, pos=pos, rows=rows)


# A round transforms k digits at once, k the largest with q^(k+1) <= 16:
# k = 3 at q = 2, else k = 1.  Sweep of this bound (walsh_table, median of
# 15 interleaved runs, 2 cores, OpenBLAS 0.3.31, us): 16 -> 32 (k = 4 at
# q = 2, k = 2 at q = 3) ran GF(2^7) 27 -> 22, GF(2^14) 917 -> 494,
# GF(3^4) 27 -> 21, but GF(2^18) 15380 -> 19002, GF(3^8) 437 -> 534 and
# GF(3^10) 4476 -> 5645; 8 and 64 were no better overall.
_ROUND_SPAN = 16

# every entry and partial sum of a round counts points of GF(q)^m, an
# integer <= q^m, and float32 holds every integer up to 2^24 exactly
_FLOAT32_EXACT = 1 << 24


@lru_cache(maxsize=None)
def _round_matrix(q: int, k: int) -> np.ndarray:
    """M[c, a*q + v, v'] = [v' = v + c.a] (float32 0/1), over c, a in GF(q)^k
    as digit indices: one Walsh round on k digits, as q^k matrices (k = 0
    gives the q x q identity)."""
    F = small_field(q)
    size = q ** k
    d = digits(np.arange(size), q, k)
    dot = np.zeros((size, size), dtype=np.intp)  # dot[c, a] = c.a in GF(q)
    for b in range(k):
        dot = F.add[dot, F.mul[d[:, None, b], d[None, :, b]]]
    c, a, v = np.indices((size, size, q))
    M = np.zeros((size, size, q, q), dtype=np.float32)
    M[c, a, v, F.add[v, dot[c, a]]] = 1
    M.setflags(write=False)
    return M.reshape(size, size * q, q)


def walsh_table(vals, q: int, m: int) -> np.ndarray:
    """T[v, l] = #{x in GF(q)^m : vals[x] + l.x = v} (int32), where vals[x]
    is the GF(q) value at the coordinate index x = sum_b x_b q^b and l is
    a coordinate index too.  Exact for q^m <= 2^24 (float32 counts), and
    BchFormsError above that."""
    size = q ** m
    if size > _FLOAT32_EXACT:
        raise BchFormsError(f"a Walsh table over GF({q})^{m} has counts up to {q}^{m} > 2^24, "
                            "beyond exact float32")
    k = 1
    while q ** (k + 2) <= _ROUND_SPAN:
        k += 1
    # T[x, v]; each round transforms the lowest digits of x, and the batch
    # axis of the matmul puts them on top, so after all rounds every digit
    # is back in place and the table is T[l, v]
    T = np.take(_round_matrix(q, 0)[0], vals, axis=0)  # k = 0 is the identity
    for lo in range(0, m, k):
        g = min(k, m - lo)
        T = np.matmul(T.reshape(size // q ** g, q ** g * q), _round_matrix(q, g)).reshape(size, q)
    return T.T.astype(np.int32, order="C")


def _coset_walsh(qv, trv2, pair, neg) -> tuple[_Plan, np.ndarray]:
    """The plan and the Walsh table T[v, l] of the values qv (by exponent)."""
    q = neg.shape[0]
    plan = _plan(trv2, pair, q)
    vals = np.zeros(qv.shape[0] + 1, dtype=np.int64)
    vals[plan.pos] = qv
    return plan, walsh_table(vals, q, plan.m)


def _coset_weights(qv, trv2, pair, neg) -> tuple[_Plan, np.ndarray]:
    """W[eps, l]: weight of the word f + l.x + eps, l a coordinate index."""
    plan, T = _coset_walsh(qv, trv2, pair, neg)
    W = qv.shape[0] - T[neg]
    W[0] += 1
    return plan, W


def coset_weight_counts(qv, trv2, pair, neg, counts):
    """Accumulate the weight histogram of the coset of Q into counts[:n+1].

    The word (l, eps) has n - Z zeros among the n codeword coordinates, with
    Z = T[-eps, l] - [eps = 0] (x = 0 is not a coordinate, and is a zero of
    every word with eps = 0).  neg only permutes the rows of T, so the
    histogram of the weights is that of Z = T - [v = 0], reversed."""
    _, T = _coset_walsh(qv, trv2, pair, neg)
    T[0] -= 1
    size = qv.shape[0] + 1
    counts[:size] += np.bincount(T.ravel(), minlength=size)[::-1]


def coset_weight_table(qv, trv2, pair, neg):
    """Per-word weights of a coset: table[0, eps] is the mu = 0 word,
    table[1+k, eps] the mu = alpha^k word."""
    plan, W = _coset_weights(qv, trv2, pair, neg)
    return W.T[plan.rows].astype(np.int64)
