"""Hot counting kernels behind the exhaustive oracles (numpy only).

``walsh_table`` is a q-ary Walsh transform over GF(q)^m: it counts

    T[v, l] = #{x in GF(q)^m : f(x) + l.x = v}

for every GF(q)-linear functional l, in rounds that each transform a
group of k coordinates with one float32 matmul.  Every entry and partial
sum of a round is a count, or a signed count, of at most q^m <= 2^24
points, so float32 is exact.

* Odd q, one-hot rounds: from A[x, v] = [f(x) = v], each round multiplies
  by 0/1 matrices, q^(m+k+2) multiply-adds on q^(m+1) entries.
* Even q = 2^e, sign rounds: addition in GF(q) is XOR of element indices,
  so the additive characters of GF(q) are the real signs (-1)^(j.u), with
  j.u the parity of j & u.  These are the characters (-1)^Tr(a u) of the
  absolute trace, relabelled (Lidl & Niederreiter, Finite Fields, ch. 5),
  and
      T[v, l] = (q^m + sum_{j=1}^{q-1} (-1)^(j.v) W_j(l)) / q,
      W_j(l) = sum_x (-1)^(j.(f(x) + l.x)).
  The sign of x factors over its digits, so the q-1 rows W_j take rounds
  of (q-1) q^(m+k) multiply-adds on (q-1) q^m entries.  The character sum
  is a Hadamard transform taken one character bit at a time: e two-term
  steps of 2 q^(m+1) multiply-adds, q = 2^e, each exact as its result is
  a power of two times a signed count.  The division is by a power of two,
  so it stays exact.

One Walsh table is ceil(m/k) rounds (k from ``_round_digits``); its
kernel work in multiply-adds is about ceil(m/k) q^(m+k+2) at odd q and
ceil(m/k) (q-1) q^(m+k) + 2 e q^(m+1) at even q = 2^e.

``coset_weight_counts`` histograms the q^(m+1) words Q(x) + Tr(mu x) + eps
of one PRM coset from T: mu -> Tr(mu .) runs over all linear functionals,
so the coset is {f + l.x + eps}, and the word (l, eps) has weight
n - (T[-eps, l] - [eps = 0]).  At q = 2 it reads the histogram off W_1
alone, with no character sum; for m <= 8 (4^m <= _DENSE_MAX) W_1 is one
matmul of the signs (-1)^qv by a dense matrix cached in the plan, which
folds the single-round transform and the exponent -> coordinate
permutation together, and larger m keep the sign rounds.  This is the
q-ary form of reading a first-order Reed-Muller coset's weights off its
Walsh spectrum (MacWilliams & Sloane, The Theory of Error-Correcting Codes,
ch. 14).

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
  At even q the addition is XOR of the indices, which ``eval_qvec`` and
  the sign rounds use in place of ``pair``.
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
    of a log in [0, n) and an index needs no reduction mod n.  At even q
    the terms are summed by XOR in place, at odd q by the pair gather."""
    n = out.shape[0]
    acc = None
    for s, l in enumerate(lam_logs):
        if l < 0:
            continue
        term = trace_rows2[s, l:l + n][index_rows[s]]
        if acc is None:
            acc = term
        elif q % 2:
            acc = pair[acc * q + term]
        else:
            np.bitwise_xor(acc, term, out=acc)
    out[:] = 0 if acc is None else acc


@dataclass(frozen=True)
class _Plan:
    trv2: np.ndarray
    pair: np.ndarray
    m: int
    pos: np.ndarray    # pos[t]: coordinate index sum_b x_b q^b of alpha^t
    rows: np.ndarray   # rows[0] = 0 (mu = 0), rows[1+k]: index of Tr(alpha^k .)
    dense: np.ndarray | None  # q = 2, 4^m <= _DENSE_MAX: (-1)^(l.pos[t]) / 2, else None


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
    if not np.array_equal(pair, F.add.ravel()):
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
    if not np.array_equal(F.matmul(win[:, :m], trv2[unit + m]), win[:, m]):
        raise NotAnMSequence("the trace vector does not satisfy a linear recurrence of order m")
    # Tr(alpha^k x) at x = e_j is trv[t_j + k]: the functional's coordinates,
    # summed one shifted slice at a time (no m x n index array)
    rows = np.zeros(n + 1, dtype=np.int64)
    for b in range(m):
        rows[1:] += trv2[unit[b]:unit[b] + n] * qpow[b]
    trv2.setflags(write=False)
    pair.setflags(write=False)
    return _Plan(trv2=trv2, pair=pair, m=m, pos=pos, rows=rows, dense=_dense_walsh(pos, q, m))


# At q = 2 with 4^m <= _DENSE_MAX, coset_weight_counts takes the spectrum
# as one matmul by the dense (2^m, n) sign matrix of _dense_walsh (at most
# 256 KB at m = 8) in place of the scatter and the sign rounds.  Sweep
# (coset_weight_counts per coset, median of 15 interleaved runs of 2000
# random cosets, 2 cores, OpenBLAS 0.3.31, us, rounds / dense): GF(2^6)
# 20.6 / 11.7, GF(2^7) 21.2 / 12.3, GF(2^8) 21.6 / 16.1, GF(2^9) 27.5 /
# 30.9, GF(2^10) 32.0 / 75.5.
_DENSE_MAX = 1 << 16


def _dense_walsh(pos: np.ndarray, q: int, m: int) -> np.ndarray | None:
    """D[l, t] = (-1)^(l.pos[t]) / 2 (float32, read-only) over the coordinate
    indices l of GF(2)^m, when q = 2 and 4^m <= _DENSE_MAX; None otherwise.
    It is the one-round Walsh transform with the exponent -> coordinate
    permutation folded in.  Built from uint16 indices and uint8 parities,
    so the transient stays within a few times the matrix."""
    size = q ** m
    if q != 2 or size * size > _DENSE_MAX:
        return None
    l = np.arange(size, dtype=np.uint16)
    parity = np.bitwise_count(l[:, None] & pos.astype(np.uint16)) & np.uint8(1)
    D = np.array([0.5, -0.5], dtype=np.float32)[parity]
    D.setflags(write=False)
    return D


# A round contracts the table with matrices whose inner dimension is at
# most _ROUND_SPAN: q^(k+1) for the one-hot rounds of odd q, so k = 1 for
# every odd q, and q^k for the sign rounds of even q, so k = 4, 2, 1, 1 at
# q = 2, 4, 8, 16.  One-hot sweep (walsh_table, median of 15 interleaved
# runs, 2 cores, OpenBLAS 0.3.31, us): 16 -> 32 (k = 2 at q = 3) ran
# GF(3^4) 27 -> 21, but GF(3^8) 437 -> 534 and GF(3^10) 4476 -> 5645.
# Sign sweep (median of 41 runs, 7 from q^m = 2^16, same host), k = 3 / 4
# / 5 at q = 2: GF(2^7) 30 / 25 / 21, GF(2^12) 71 / 56 / 61, GF(2^14)
# 188 / 170 / 236, GF(2^16) 1384 / 1304 / 1446, GF(2^18) 5475 / 5311 /
# 5246; k = 1 / 2 / 3 at q = 4: GF(4^4) 41 / 33 / 45, GF(4^7) 655 / 473 /
# 551, GF(4^8) 2975 / 1587 / 1816, GF(4^9) 17099 / 14351 / 11181; k = 1 / 2
# at q = 8: GF(8^3) 34 / 47, GF(8^4) 166 / 226, GF(8^6) 23004 / 24307.
_ROUND_SPAN = 16

# every entry and partial sum of a round is a count or a signed count of
# points of GF(q)^m, at most q^m, and float32 holds every integer up to
# 2^24 exactly
_FLOAT32_EXACT = 1 << 24


@lru_cache(maxsize=None)
def _round_digits(q: int) -> int:
    """Digits per round: the largest k >= 1 whose round matrices have an
    inner dimension of at most _ROUND_SPAN."""
    k, onehot = 1, q % 2
    while q ** (k + 1 + onehot) <= _ROUND_SPAN:
        k += 1
    return k


def _digit_dot(q: int, k: int) -> np.ndarray:
    """dot[c, y] = c.y in GF(q), over c, y in GF(q)^k as digit indices."""
    d = digits(np.arange(q ** k), q, k)
    return small_field(q).matmul(d, d.T)


@lru_cache(maxsize=None)
def _round_matrix(q: int, k: int) -> np.ndarray:
    """M[c, a*q + v, v'] = [v' = v + c.a] (float32 0/1), over c, a in GF(q)^k
    as digit indices: one one-hot round on k digits, as q^k matrices (k = 0
    gives the q x q identity)."""
    F = small_field(q)
    size = q ** k
    dot = _digit_dot(q, k)
    c, a, v = np.indices((size, size, q))
    M = np.zeros((size, size, q, q), dtype=np.float32)
    M[c, a, v, F.add[v, dot[c, a]]] = 1
    M.setflags(write=False)
    return M.reshape(size, size * q, q)


@lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    """X[j, v] = (-1)^(j.v) (float32), j.v the parity of j & v: the n x n
    Sylvester-Hadamard matrix.  For n = q = 2^e, addition in GF(q) is XOR of
    element indices, so its rows are the q additive characters of GF(q)."""
    j = np.arange(n)
    X = (1 - 2 * (np.bitwise_count(j[:, None] & j) & 1).astype(np.int8)).astype(np.float32)
    X.setflags(write=False)
    return X


@lru_cache(maxsize=None)
def _characters(q: int) -> np.ndarray:
    """C[j-1, v] = (-1)^(j.v) / q (float32) for the nontrivial characters
    j = 1..q-1 of GF(q), q even: the sign rows of _sign_spectra, cached as
    they are taken once per coset."""
    C = _hadamard(q)[1:] / np.float32(q)
    C.setflags(write=False)
    return C


@lru_cache(maxsize=None)
def _sign_matrix(q: int, k: int) -> np.ndarray:
    """H[j-1, c, y] = (-1)^(j.(c.y)) (float32, C-contiguous), over the
    characters j = 1..q-1 of GF(q) (q even) and c, y in GF(q)^k as digit
    indices: one sign round on k digits for every nontrivial character."""
    H = _hadamard(q)[1:, _digit_dot(q, k)]
    H.setflags(write=False)
    return H


def _exact_size(q: int, m: int) -> int:
    """q^m, or BchFormsError when float32 cannot count q^m points exactly."""
    size = q ** m
    if size > _FLOAT32_EXACT:
        raise BchFormsError(f"a Walsh table over GF({q})^{m} has counts up to {q}^{m} > 2^24, "
                            "beyond exact float32")
    return size


def _sign_spectra(vals, q: int, m: int) -> np.ndarray:
    """W[j-1, l] = W_j(l) / q, W_j(l) = sum_x (-1)^(j.(vals[x] + l.x)), for
    the characters j = 1..q-1 of GF(q), q even (float32, shape (q-1, q^m)).

    The sign of x factors over the digits of x, as j.(u + w) = j.u + j.w
    and l.x = sum_b l_b x_b, so each round transforms k digits of every row
    with one batched matmul against _sign_matrix: (q-1) q^(m+k)
    multiply-adds on (q-1) q^m entries.  As in the one-hot rounds, the
    transformed digits come out on top.  Every partial sum is a signed
    count of at most q^m points, divided by q: a power of two, so exact,
    and the character sum of walsh_table comes out as T itself."""
    size = q ** m
    k = _round_digits(q)
    W = np.take(_characters(q), vals, axis=1)
    for lo in range(0, m, k):
        g = min(k, m - lo)
        W = np.matmul(_sign_matrix(q, g), W.reshape(q - 1, size // q ** g, q ** g).transpose(0, 2, 1))
    return W.reshape(q - 1, size)


def walsh_table(vals, q: int, m: int) -> np.ndarray:
    """T[v, l] = #{x in GF(q)^m : vals[x] + l.x = v} (int32), where vals[x]
    is the GF(q) value at the coordinate index x = sum_b x_b q^b and l is
    a coordinate index too.  Exact for q^m <= 2^24 (float32 counts), and
    BchFormsError above that.

    Odd q: one-hot rounds on [vals[x] = v].  Even q: the character sum
    T[v, l] = (q^m + sum_j (-1)^(j.v) W_j(l)) / q over the nontrivial
    characters j of GF(q) (_sign_spectra)."""
    size = _exact_size(q, m)
    if q % 2:
        k = _round_digits(q)
        # T[x, v]; each round transforms the lowest digits of x, and the batch
        # axis of the matmul puts them on top, so after all rounds every digit
        # is back in place and the table is T[l, v]
        T = np.take(_round_matrix(q, 0)[0], vals, axis=0)  # k = 0 is the identity
        for lo in range(0, m, k):
            g = min(k, m - lo)
            T = np.matmul(T.reshape(size // q ** g, q ** g * q), _round_matrix(q, g)).reshape(size, q)
        return T.T.astype(np.int32, order="C")
    # one character bit at a time, on the rows [q^m, W_1, ..., W_(q-1)] / q:
    # each step is a two-term sum whose result is a power of two times a
    # signed count of at most q^m points (divided by q), so exact
    W = _sign_spectra(vals, q, m)
    T = np.empty((q, size), dtype=np.float32)
    T[0], T[1:] = size / q, W
    del W
    for b in range(q.bit_length() - 1):
        T = np.matmul(_hadamard(2), T.reshape(q >> (b + 1), 2, -1))
    return T.reshape(q, size).astype(np.int32)


def _coset_vals(qv, trv2, pair, neg) -> tuple[_Plan, np.ndarray]:
    """The plan and the values qv (by exponent) by coordinate index."""
    plan = _plan(trv2, pair, neg.shape[0])
    vals = np.empty(qv.shape[0] + 1, dtype=np.int64)
    vals[0] = 0  # pos is a permutation of 1..n, so this is the only gap
    vals[plan.pos] = qv
    return plan, vals


def _coset_weights(qv, trv2, pair, neg) -> tuple[_Plan, np.ndarray]:
    """W[eps, l]: weight of the word f + l.x + eps, l a coordinate index."""
    plan, vals = _coset_vals(qv, trv2, pair, neg)
    W = qv.shape[0] - walsh_table(vals, neg.shape[0], plan.m)[neg]
    W[0] += 1
    return plan, W


# (-1)^v for v in GF(2), the signs that the dense matrix multiplies
_SIGNS = np.array([1, -1], dtype=np.float32)
_SIGNS.setflags(write=False)


def coset_weight_counts(qv, trv2, pair, neg, counts):
    """Accumulate the weight histogram of the coset of Q into counts[:n+1].

    The word (l, eps) has n - Z zeros among the n codeword coordinates, with
    Z = T[-eps, l] - [eps = 0] (x = 0 is not a coordinate, and is a zero of
    every word with eps = 0).  neg only permutes the rows of T, so the
    histogram of the weights is that of Z = T - [v = 0], reversed.

    At q = 2 the histogram comes from the spectrum W = W_1 alone:
    T[0, l] = 2^m/2 + W(l)/2 >= 1 (x = 0 counts), T[1, l] = 2^m - T[0, l],
    so the words (l, 0) and (l, 1) have weights 2^m - T[0, l] and
    T[0, l] - 1.  With the plan's dense matrix D (m <= 8), W/2 is the one
    matmul 1/2 + D @ (-1)^qv, the 1/2 being the point x = 0."""
    q = neg.shape[0]
    size = qv.shape[0] + 1
    if q == 2:
        plan = _plan(trv2, pair, q)
        if plan.dense is not None:
            T0 = plan.dense @ np.take(_SIGNS, qv)
            T0 += (size + 1) / 2  # 2^m/2, and 1/2 for the point x = 0
        else:
            _exact_size(2, plan.m)
            T0 = _sign_spectra(_coset_vals(qv, trv2, pair, neg)[1], 2, plan.m)[0] + size // 2
        h = np.bincount(T0.astype(np.intp), minlength=size + 1)
        counts[:size] += h[size:0:-1] + h[1:]
        return
    plan, vals = _coset_vals(qv, trv2, pair, neg)
    T = walsh_table(vals, q, plan.m)
    T[0] -= 1
    counts[:size] += np.bincount(T.ravel(), minlength=size)[::-1]


def coset_weight_table(qv, trv2, pair, neg):
    """Per-word weights of a coset: table[0, eps] is the mu = 0 word,
    table[1+k, eps] the mu = alpha^k word."""
    plan, W = _coset_weights(qv, trv2, pair, neg)
    return W.T[plan.rows].astype(np.int64)
