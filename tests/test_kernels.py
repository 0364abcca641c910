import tracemalloc

import numpy as np
import pytest

from bchforms import kernels, oracle
from bchforms.errors import BchFormsError, NotAnMSequence
from bchforms.forms import TraceQuadraticForm, family_domains, family_slots
from bchforms.schemes import FamilySpec, enumerate_family
from bchforms.gfarith import digits, field_for, small_field


def naive_coset_counts(qv, trv, q):
    """Triple loop over (mu, eps, position); the anchor for the shift-scan."""
    F = small_field(q)
    n = len(qv)
    counts = {}
    # row k+1 is trv shifted so that word[j] = trv[(j+k) % n]
    rows = [np.zeros(n, dtype=int)] + [
        np.array([trv[(j + k) % n] for j in range(n)]) for k in range(n)
    ]
    for row in rows:
        for eps in range(q):
            w = sum(1 for j in range(n) if F.add_el(F.add_el(int(qv[j]), int(row[j])), eps) != 0)
            counts[w] = counts.get(w, 0) + 1
    return counts


def shift_scan_table(qv, trv2, pair, neg):
    """Reference for the transform kernel: weights of every coset word by
    scanning all n shifts of the trace vector, O(q n^2).  Row 0 is mu = 0,
    row 1+k is mu = alpha^k, columns are epsilon."""
    n = qv.shape[0]
    q = neg.shape[0]
    out = np.empty((n + 1, q), dtype=np.int64)
    h0 = np.bincount(qv, minlength=q)
    win = np.lib.stride_tricks.sliding_window_view(trv2, n)[:n]
    vals = pair[qv[None, :] * q + win]
    for eps in range(q):
        out[0, eps] = n - h0[neg[eps]]
        out[1:, eps] = n - np.count_nonzero(vals == neg[eps], axis=1)
    return out


def field_tables(q, m):
    fld = field_for(q, m)
    trv2 = np.concatenate([fld.trace_vec, fld.trace_vec])
    return fld, trv2, fld.base.add.astype(np.int64).ravel(), fld.base.neg.astype(np.int64)


def kernel_counts(qv, trv2, pair, neg):
    counts = np.zeros(qv.shape[0] + 1, dtype=np.int64)
    kernels.coset_weight_counts(qv, trv2, pair, neg, counts)
    return counts


@pytest.mark.parametrize("q,n", [(2, 15), (3, 26), (4, 15), (5, 24), (9, 20)])
def test_coset_weight_counts_matches_naive(q, n):
    F = small_field(q)
    rng = np.random.default_rng(q * 100 + n)
    qv = rng.integers(0, q, n).astype(np.int64)
    trv = rng.integers(0, q, n).astype(np.int64)
    trv2 = np.concatenate([trv, trv])
    pair = F.add.astype(np.int64).ravel()
    neg = F.neg.astype(np.int64)
    table = shift_scan_table(qv, trv2, pair, neg)
    counts = np.bincount(table.ravel(), minlength=n + 1)
    expected = naive_coset_counts(qv, trv, q)
    assert {w: int(c) for w, c in enumerate(counts) if c} == expected
    assert counts.sum() == (n + 1) * q


FIELDS = [(2, 4), (2, 6), (2, 8), (3, 3), (3, 4), (4, 3), (4, 4), (5, 2), (5, 3),
          (8, 2), (8, 3), (9, 2), (16, 2)]


@pytest.mark.parametrize("q,m", FIELDS)
def test_transform_matches_shift_scan(q, m):
    fld, trv2, pair, neg = field_tables(q, m)
    rng = np.random.default_rng(q * 100 + m)
    for _ in range(4):
        qv = rng.integers(0, q, fld.n).astype(np.int64)
        ref = shift_scan_table(qv, trv2, pair, neg)
        assert np.array_equal(kernels.coset_weight_table(qv, trv2, pair, neg), ref)
        assert np.array_equal(kernel_counts(qv, trv2, pair, neg),
                              np.bincount(ref.ravel(), minlength=fld.n + 1))


@pytest.mark.parametrize("q,m,i", [(2, 6, 3), (3, 4, 2)])
def test_transform_matches_shift_scan_every_member(q, m, i):
    fld, trv2, pair, neg = field_tables(q, m)
    members = 0
    for form in enumerate_family(FamilySpec.quadratic(q, m, i)):
        qv = form.value_vec()
        ref = shift_scan_table(qv, trv2, pair, neg)
        assert np.array_equal(kernels.coset_weight_table(qv, trv2, pair, neg), ref), form.lambdas
        assert np.array_equal(kernel_counts(qv, trv2, pair, neg),
                              np.bincount(ref.ravel(), minlength=fld.n + 1))
        members += 1
    assert members == q ** (m * (2 * i - m + 3) // 2)


@pytest.fixture
def no_dense(monkeypatch):
    """Fail if a plan reaches its dense matrix: a rejected trace vector must
    raise before any of the plan is built."""
    def refuse(pos, q, m):
        raise AssertionError(f"dense matrix built for GF({q}^{m})")
    monkeypatch.setattr(kernels, "_dense_walsh", refuse)


def test_rejects_random_trace_vector(no_dense):
    _, _, pair, neg = field_tables(3, 3)
    trv = np.random.default_rng(7).integers(0, 3, 26).astype(np.int64)
    qv = np.zeros(26, dtype=np.int64)
    with pytest.raises(NotAnMSequence):
        kernel_counts(qv, np.concatenate([trv, trv]), pair, neg)


def test_rejects_nonlinear_sequence_with_full_windows(no_dense):
    # a binary length-15 word whose cyclic 4-windows are the 15 nonzero
    # vectors (a punctured de Bruijn sequence) but whose shifts are not
    # closed under addition, so it obeys no linear recurrence
    words = np.arange(1 << 15)
    bits = (words[:, None] >> np.arange(15)) & 1
    idx = (np.arange(15)[:, None] + np.arange(4)) % 15
    windows = bits[:, idx] @ (1 << np.arange(4))
    full = np.all(np.sort(windows, axis=1) == np.arange(1, 16), axis=1)
    rotations = lambda s: {tuple(np.roll(s, k)) for k in range(15)}  # noqa: E731
    nonlinear = [s for s in bits[full] if tuple(s ^ np.roll(s, 1)) not in rotations(s)]
    assert nonlinear
    trv = nonlinear[0].astype(np.int64)
    _, _, pair, neg = field_tables(2, 4)
    with pytest.raises(NotAnMSequence, match="recurrence"):
        kernel_counts(np.zeros(15, dtype=np.int64), np.concatenate([trv, trv]), pair, neg)


def test_eval_qvec_both_paths():
    q, n = 3, 26
    F = small_field(q)
    rng = np.random.default_rng(0)
    n_slots = 3
    rows = rng.integers(0, q, (n_slots, n)).astype(np.int64)
    steps = np.array([4, 10, 2], dtype=np.int64)
    lam_logs = np.array([5, -1, 17], dtype=np.int64)
    pair = F.add.astype(np.int64).ravel()
    expected = np.zeros(n, dtype=np.int64)
    for t in range(n):
        acc = 0
        for s in range(n_slots):
            if lam_logs[s] >= 0:
                acc = F.add_el(acc, int(rows[s][(lam_logs[s] + t * steps[s]) % n]))
        expected[t] = acc
    index_rows = np.arange(n) * steps[:, None] % n
    out = np.zeros(n, dtype=np.int64)
    kernels.eval_qvec(lam_logs, index_rows, np.tile(rows, 2), pair, q, out)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_even_eval_qvec_equals_pair_sum(q):
    # even q folds the slots by XOR; the reference sums them with the
    # addition table, one slot at a time
    n, n_slots = 63, 4
    F = small_field(q)
    pair = F.add.astype(np.int64).ravel()
    rng = np.random.default_rng(q)
    rows = rng.integers(0, q, (n_slots, n)).astype(np.int64)
    index_rows = rng.integers(0, n, (n_slots, n))
    for _ in range(20):
        lam_logs = rng.integers(0, n, n_slots)
        lam_logs[rng.integers(n_slots)] = -1
        expected = np.zeros(n, dtype=np.int64)
        for s, l in enumerate(lam_logs):
            if l >= 0:
                expected = pair[expected * q + rows[s][(l + index_rows[s]) % n]]
        out = np.empty(n, dtype=np.int64)
        kernels.eval_qvec(lam_logs, index_rows, np.tile(rows, 2), pair, q, out)
        assert np.array_equal(out, expected), lam_logs


@pytest.mark.parametrize("e", range(1, 9))
def test_even_field_addition_is_xor(e):
    # eval_qvec at even q and the sign rounds both add element indices by XOR
    q = 1 << e
    a = np.arange(q)
    assert np.array_equal(small_field(q).add, a[:, None] ^ a)


@pytest.mark.parametrize("q,m,i", [(2, 8, 4), (3, 6, 3), (2, 7, 4)])
def test_eval_qvec_tables_match_reduced_formula(q, m, i):
    # the trace route's index rows against (l + t*(q^j+1)) mod n, for
    # every slot (the half slot first, m even) and every log l, and on
    # members with a zero lambda; at (2,7) the steps are prime to n, so
    # every index in [0, n) occurs
    fld = field_for(q, m)
    n, pair = fld.n, fld.base.add.astype(np.int64).ravel()
    index_rows, trace_rows2 = oracle.qvec_tables(fld, i)
    slots = family_slots(m, i)
    assert slots[0].half == (m % 2 == 0) and len(slots) == index_rows.shape[0] == trace_rows2.shape[0]
    t = np.arange(n)
    out = np.empty(n, dtype=np.int64)
    for s, slot in enumerate(slots):
        row = fld.half_trace_vec if slot.half else fld.trace_vec
        lam_logs = [-1] * len(slots)
        for lam_log in range(n):
            lam_logs[s] = lam_log
            kernels.eval_qvec(lam_logs, index_rows, trace_rows2, pair, q, out)
            assert np.array_equal(out, row[(lam_log + t * (q ** slot.j + 1)) % n]), (s, lam_log)
    kernels.eval_qvec([-1] * len(slots), index_rows, trace_rows2, pair, q, out)
    assert not out.any()
    rng = np.random.default_rng(q * 100 + m)
    domains = family_domains(fld, i)
    for _ in range(50):
        lams = [int(rng.choice(d)) for d in domains]
        lams[int(rng.integers(len(lams)))] = 0
        form = TraceQuadraticForm(fld, i, tuple(lams))
        kernels.eval_qvec([int(fld.log_index[v]) for v in lams], index_rows, trace_rows2, pair, q, out)
        assert np.array_equal(out, form.value_vec()), lams


def test_field_inputs_are_the_read_only_plan_arrays():
    fld = field_for(3, 4)
    trv2, pair, neg = kernels.field_inputs(fld)
    again = kernels.field_inputs(fld)
    assert again[0] is trv2 and again[1] is pair
    assert kernels._plan(trv2, pair, 3).trv2 is trv2
    for arr in (trv2, pair):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    # the plan holds its own copy of the field's trace vector
    assert not np.shares_memory(trv2, fld.trace_vec)


def test_equal_writeable_copy_gets_the_same_counts():
    fld = field_for(3, 4)
    trv2, pair, neg = kernels.field_inputs(fld)
    qv = np.random.default_rng(11).integers(0, 3, fld.n).astype(np.int64)
    copies = trv2.copy(), pair.copy()
    assert all(c.flags.writeable for c in copies)
    ref = shift_scan_table(qv, trv2, pair, neg)
    expected = np.bincount(ref.ravel(), minlength=fld.n + 1)
    assert np.array_equal(kernel_counts(qv, *copies, neg), expected)
    assert np.array_equal(kernel_counts(qv, trv2, pair, neg), expected)
    assert np.array_equal(kernels.coset_weight_table(qv, *copies, neg), ref)


def test_corrupted_copy_of_plan_arrays_is_rejected(no_dense):
    fld = field_for(2, 6)
    trv2, pair, neg = kernels.field_inputs(fld)
    n = fld.n
    bad = trv2.copy()
    bad[[5, n + 5]] ^= 1  # still periodic, no longer an m-sequence
    with pytest.raises(NotAnMSequence):
        kernel_counts(np.zeros(n, dtype=np.int64), bad, pair, neg)


def test_coset_weight_table_consistent_with_counts():
    q, m = 3, 3
    fld, trv2, pair, neg = field_tables(q, m)
    F, n, trv = fld.base, fld.n, fld.trace_vec
    qv = np.random.default_rng(3).integers(0, q, n).astype(np.int64)
    table = kernels.coset_weight_table(qv, trv2, pair, neg)
    assert table.shape == (n + 1, q)
    from_table = np.bincount(table.ravel(), minlength=n + 1)
    assert np.array_equal(from_table, kernel_counts(qv, trv2, pair, neg))
    # spot: entry (1+k, eps) is the weight of qv + shifted trv + eps
    k, eps = 7, 2
    word_w = sum(
        1 for j in range(n) if F.add_el(F.add_el(int(qv[j]), int(trv[(j + k) % n])), eps) != 0
    )
    assert table[1 + k, eps] == word_w


def gather_walsh_table(vals, q, m):
    """The earlier production kernel, kept as a reference: m rounds, each a
    gather of a (q, q, q, q^(m-1)) array summed over one axis, on int32."""
    F = small_field(q)
    a = np.arange(q)
    vsrc = F.add[a[:, None, None], F.neg[F.mul[a[None, :, None], a[None, None, :]]]].astype(np.intp)
    size = q ** m
    T = np.asarray(vals) == a[:, None]
    for _ in range(m):
        T = T.reshape(q, size // q, q)[vsrc, :, a].sum(axis=2, dtype=np.int32)
    return T.reshape(q, size)


def onehot_walsh_table(vals, q, m):
    """The one-hot rounds that ran for every q before the sign rounds took
    over even q, kept as a reference: float32 matmuls of the table T[x, v]
    against the 0/1 round matrices, k digits a round with q^(k+1) <= 16."""
    k = 1
    while q ** (k + 2) <= 16:
        k += 1
    size = q ** m
    T = np.take(kernels._round_matrix(q, 0)[0], vals, axis=0)
    for lo in range(0, m, k):
        g = min(k, m - lo)
        T = np.matmul(T.reshape(size // q ** g, q ** g * q), kernels._round_matrix(q, g)).reshape(size, q)
    return T.T.astype(np.int32, order="C")


def brute_walsh_table(vals, q, m):
    """T[v, l] = #{x : vals[x] + l.x = v}, counted one functional l at a time."""
    F = small_field(q)
    size = q ** m
    xd = digits(np.arange(size), q, m)
    T = np.zeros((q, size), dtype=np.int32)
    for l, ld in enumerate(xd):
        acc = vals
        for b in range(m):
            acc = F.add[acc, F.mul[ld[b], xd[:, b]]]
        T[:, l] = np.bincount(acc, minlength=q)
    return T


# every q from 2 to 9 and q = 16, so non-prime q and one-digit rounds are
# covered, and m from 1 up, so every remainder of m by the digits per
# round occurs (k = 4, 2, 1, 1 at q = 2, 4, 8, 16; k = 1 at odd q)
WALSH_FIELDS = [(2, m) for m in range(1, 11)] + [(3, m) for m in range(1, 6)] + [
    (4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (5, 1), (5, 3), (7, 2), (7, 3), (8, 1), (8, 2), (8, 3),
    (9, 3), (16, 1), (16, 2)]


@pytest.mark.parametrize("q,m", WALSH_FIELDS)
def test_walsh_table_matches_gather_and_brute_force(q, m):
    rng = np.random.default_rng(q * 100 + m)
    for vals in (rng.integers(0, q, q ** m), np.zeros(q ** m, dtype=np.int64)):
        T = kernels.walsh_table(vals, q, m)
        assert T.dtype == np.int32 and T.flags.c_contiguous
        assert np.array_equal(T, brute_walsh_table(vals, q, m))
        assert T.tobytes() == gather_walsh_table(vals, q, m).tobytes()
        assert T.tobytes() == onehot_walsh_table(vals, q, m).tobytes()


@pytest.mark.parametrize("q,m", [(2, 13), (2, 14), (3, 7), (4, 6), (4, 7), (8, 4), (9, 4), (16, 3)])
def test_walsh_table_matches_gather_on_larger_fields(q, m):
    vals = np.random.default_rng(q * 100 + m).integers(0, q, q ** m)
    T = kernels.walsh_table(vals, q, m)
    assert T.tobytes() == gather_walsh_table(vals, q, m).tobytes()
    if q % 2 == 0:
        assert T.tobytes() == onehot_walsh_table(vals, q, m).tobytes()


@pytest.mark.parametrize("m", range(2, 13))
def test_binary_coset_histogram_matches_walsh_table(m):
    # at q = 2 the kernel reads the histogram off the spectrum W alone; the
    # reference takes Z = T - [v = 0] over the whole table T and reverses
    fld, trv2, pair, neg = field_tables(2, m)
    rng = np.random.default_rng(m)
    for qv in (rng.integers(0, 2, fld.n).astype(np.int64), np.zeros(fld.n, dtype=np.int64)):
        _, vals = kernels._coset_vals(qv, trv2, pair, neg)
        T = gather_walsh_table(vals, 2, m)
        T[0] -= 1
        expected = np.bincount(T.ravel(), minlength=fld.n + 1)[::-1]
        assert np.array_equal(kernel_counts(qv, trv2, pair, neg), expected)


def test_even_walsh_table_memory():
    # GF(16^4): the sign rounds hold two float32 arrays of (q-1) q^m
    # entries, each step of the character sum two of q q^m, and the int32
    # result one of q q^m next to the last step's
    q, m = 16, 4
    vals = np.random.default_rng(5).integers(0, q, q ** m)
    kernels.walsh_table(vals, q, m)  # build the cached round matrices first
    tracemalloc.start()
    try:
        kernels.walsh_table(vals, q, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (q - 1) * q ** m * 4, peak


@pytest.mark.parametrize("m", range(2, 9))
def test_binary_plan_dense_matrix(m):
    # D[l, t] = (-1)^(l.pos[t]) / 2: the Sylvester-Hadamard columns of the
    # coordinate indices of alpha^t, halved
    fld = field_for(2, m)
    plan = kernels._plan(*kernels.field_inputs(fld)[:2], 2)
    D = plan.dense
    assert D.dtype == np.float32 and D.shape == (2 ** m, fld.n)
    assert np.array_equal(D, kernels._hadamard(2 ** m)[:, plan.pos] / 2)
    assert not D.flags.writeable


@pytest.mark.parametrize("q,m", [(2, 9), (2, 12), (3, 4), (4, 4), (8, 2)])
def test_plan_without_dense_matrix(q, m):
    plan = kernels._plan(*kernels.field_inputs(field_for(q, m))[:2], q)
    assert plan.dense is None


def test_binary_dense_plan_memory(monkeypatch):
    # GF(2^8): the dense matrix is 256 x 255 float32 (255 KB), built from
    # uint16 indices and uint8 parities
    fld = field_for(2, 8)
    trv2, pair, _ = kernels.field_inputs(fld)
    monkeypatch.setattr(kernels, "_PLANS", ())
    tracemalloc.start()
    try:
        plan = kernels._plan(trv2.copy(), pair.copy(), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.dense is not None
    assert peak <= 1 << 20, peak


def test_field_inputs_memory(monkeypatch):
    # GF(2^19): the plan's arrays are a few int64 vectors of length n
    # (4 MB each); an m x n index array would alone take 80 MB
    fld = field_for(2, 19)
    fld.trace_vec
    monkeypatch.setattr(kernels, "_PLANS", ())
    tracemalloc.start()
    try:
        kernels.field_inputs(fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 << 20, peak


def test_walsh_table_refuses_counts_beyond_float32():
    # 2^25 points cannot be counted exactly in float32; the size check
    # comes before any allocation, so a one-element dummy suffices
    tracemalloc.start()
    try:
        with pytest.raises(BchFormsError, match="2\\^24"):
            kernels.walsh_table(np.zeros(1, dtype=np.int64), 2, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
