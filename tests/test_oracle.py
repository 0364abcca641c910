import tracemalloc

import numpy as np
import pytest

from bchforms import kernels, oracle
from bchforms.bchcode import generator_polynomial
from bchforms.cyclotomic import code_params
from bchforms.errors import BchFormsError, BudgetExceeded, CountMismatch, OutOfRange
from bchforms.forms import RankType, all_rank_types, canonical_form
from bchforms.gfarith import digits, field_for, small_field
from bchforms.oracle import (
    EnumerationBudget,
    generator_route_weights,
    rank_type_census,
    trace_route_weights,
)
from bchforms.schemes import FamilySpec, is_proper_d_code
from bchforms.weights import C_CLASSES_EVEN, C_CLASSES_ODD, appendix_frequency_tables, code_enumerator_odd


def test_budget_from_env(monkeypatch):
    monkeypatch.delenv("BCHFORMS_BUDGET", raising=False)
    assert EnumerationBudget.from_env().max_codewords == 1 << 24
    monkeypatch.setenv("BCHFORMS_BUDGET", "small")
    assert EnumerationBudget.from_env().max_codewords == 1 << 16
    monkeypatch.setenv("BCHFORMS_BUDGET", "1024")
    assert EnumerationBudget.from_env().max_codewords == 1024
    monkeypatch.setenv("BCHFORMS_BUDGET", "foo")
    with pytest.raises(OutOfRange):
        EnumerationBudget.from_env()


def test_budget_parse():
    assert EnumerationBudget.parse(None) == EnumerationBudget.parse(" Default ") == EnumerationBudget()
    assert EnumerationBudget.parse("small") == EnumerationBudget(max_codewords=1 << 16, max_field_size=1 << 12)
    assert EnumerationBudget.parse("4096").max_codewords == 4096
    for raw in ("foo", "1.5", "0", "-3", "1e6"):
        with pytest.raises(OutOfRange):
            EnumerationBudget.parse(raw)


def test_library_scans_ignore_the_budget_variable(monkeypatch):
    # a library result is a function of its arguments: BCHFORMS_BUDGET is a
    # setting of the CLI, so a 1-codeword value refuses nothing here
    monkeypatch.setenv("BCHFORMS_BUDGET", "1")
    params = code_params(3, 3, 1)
    assert trace_route_weights(params).total() == 3 ** params.dimension
    assert rank_type_census(FamilySpec("S1", 3, 3, 1)).total() == 27
    form = canonical_form(3, 3, RankType(3, 1))
    assert sum(oracle.appendix_census(3, 3, form, "zero").values()) == 27


def test_budget_refusal():
    params = code_params(3, 3, 1)
    with pytest.raises(BudgetExceeded):
        trace_route_weights(params, EnumerationBudget(max_codewords=100))


def test_trace_route_member_cap_before_work(monkeypatch):
    # (2,14,7) fits a 2^36 codeword budget, but its 2^21 members exceed the
    # family scan limit of schemes.family_lambdas, which refuses before the
    # field is built or a coset is scanned
    from bchforms import schemes

    params = code_params(2, 14, 7)
    built = []

    def no_kernel(*args):
        raise RuntimeError("eval_qvec reached")

    monkeypatch.setattr(kernels, "eval_qvec", no_kernel)
    monkeypatch.setattr(schemes, "field_for", lambda *a: built.append(a))
    monkeypatch.setattr(oracle, "field_for", lambda *a: built.append(a))
    with pytest.raises(BudgetExceeded, match="family scan limit"):
        trace_route_weights(params, EnumerationBudget(max_codewords=1 << 36))
    assert built == []


def test_trace_route_331_matches_closed_form():
    params = code_params(3, 3, 1)
    dist = trace_route_weights(params)
    assert dist.counts == code_enumerator_odd(params).counts


DESK_CODES = [(3, 3, 1), (2, 4, 1), (2, 4, 2), (2, 6, 2), (4, 2, 1)]


def masked_generator_weights(code) -> dict[int, int]:
    """Reference for generator_route_weights: every information word in
    chunks, each row added into the words whose digit for it is d, one
    digit value d at a time."""
    F = code.field.base
    q, n, k = F.q, code.length, code.dimension
    rows = np.zeros((k, n), dtype=np.int64)
    for r in range(k):
        rows[r, r : r + len(code.generator)] = code.generator
    add, mul = F.add.astype(np.int64), F.mul.astype(np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)
    chunk = 1 << 14
    for lo in range(0, q ** k, chunk):
        idx = np.arange(lo, min(lo + chunk, q ** k), dtype=np.int64)
        acc = np.zeros((len(idx), n), dtype=np.int64)
        for r in range(k):
            digit = idx // q ** r % q
            for d in range(1, q):
                mask = digit == d
                acc[mask] = add[acc[mask], mul[d, rows[r]][None, :]]
        counts += np.bincount(np.count_nonzero(acc, axis=1), minlength=n + 1)
    return {w: int(c) for w, c in enumerate(counts) if c}


@pytest.mark.parametrize("q,m,i", DESK_CODES + [(2, 6, 3), (3, 4, 2), (5, 3, 1), (4, 3, 1)])
def test_generator_route_equals_masked_reference(q, m, i):
    code = generator_polynomial(q, m, code_params(q, m, i).delta_i)
    gen = generator_route_weights(code)
    assert gen.length == code.length
    assert gen.counts == masked_generator_weights(code), (q, m, i)


def test_generator_route_memory():
    # C(2,12,2047): k = 13, n = 4095; the masked reference holds int64
    # chunk x n arrays, 513 MB at its tracemalloc peak here
    code = generator_polynomial(2, 12, 2047)
    assert (code.dimension, code.length) == (13, 4095)
    tracemalloc.start()
    try:
        dist = generator_route_weights(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20, peak
    assert dist.total() == 2 ** 13
    assert dist.min_positive_weight() >= 2047  # the BCH bound


def test_routes_agree_desk_scale():
    for q, m, i in DESK_CODES:
        params = code_params(q, m, i)
        code = generator_polynomial(q, m, params.delta_i)
        trace = trace_route_weights(params)
        gen = generator_route_weights(code)
        assert trace.counts == gen.counts, (q, m, i)
        assert trace.total() == q ** params.dimension


def test_worker_count_independence():
    params = code_params(2, 6, 3)
    one = trace_route_weights(params, workers=1)
    two = trace_route_weights(params, workers=2)
    three = trace_route_weights(params, workers=3)
    assert one.counts == two.counts == three.counts
    assert one.min_positive_weight() == 23


@pytest.mark.parametrize("q,m,i", [(2, 6, 3), (2, 7, 4), (2, 8, 4)])
def test_binary_dense_route_equals_sign_rounds(monkeypatch, q, m, i):
    # m <= 8 at q = 2 takes the spectrum as one matmul by the plan's dense
    # matrix; with _DENSE_MAX = 0 the same scan runs the sign rounds
    params = code_params(q, m, i)
    dense = trace_route_weights(params, workers=1)
    assert kernels._plan(*kernels.field_inputs(field_for(q, m))[:2], q).dense is not None
    monkeypatch.setattr(kernels, "_DENSE_MAX", 0)
    monkeypatch.setattr(kernels, "_PLANS", ())
    rounds = trace_route_weights(params, workers=1)
    assert all(plan.dense is None for plan in kernels._PLANS)
    assert dense.counts == rounds.counts
    assert dense.min_positive_weight() == params.delta_i


def record_pools(monkeypatch):
    started = []

    class RecordingPool(oracle.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(oracle, "ThreadPoolExecutor", RecordingPool)
    return started


def test_worker_count_independence_pooled(monkeypatch):
    started = record_pools(monkeypatch)
    params = code_params(3, 8, 3)  # odd q, q^(m+2) = 3^10 >= 2^15
    one = trace_route_weights(params, workers=1)
    two = trace_route_weights(params, workers=2)
    three = trace_route_weights(params, workers=3)
    assert started == [2, 3]
    assert one.counts == two.counts == three.counts
    assert one.min_positive_weight() == params.delta_i


def test_even_q_scan_starts_no_pool(monkeypatch):
    # the sign rounds of even q ran slower on two threads than on one, so
    # (4,6,2), with q^(m+2) = 2^16, scans on the calling thread
    started = record_pools(monkeypatch)
    params = code_params(4, 6, 2)
    one = trace_route_weights(params, workers=1)
    two = trace_route_weights(params, workers=2)
    assert started == []
    assert one.counts == two.counts
    assert one.min_positive_weight() == params.delta_i


def test_dropped_count_raises_typed_error(monkeypatch):
    real = kernels.coset_weight_counts

    def drop_one(qv, trv2, pair, neg, counts):
        real(qv, trv2, pair, neg, counts)
        counts[np.nonzero(counts)[0][-1]] -= 1

    monkeypatch.setattr(kernels, "coset_weight_counts", drop_one)
    with pytest.raises(CountMismatch):
        trace_route_weights(code_params(2, 4, 1), workers=1)
    assert issubclass(CountMismatch, BchFormsError)


def test_rank_type_census_examples():
    from bchforms.schemes import FamilySpec, census_inner_distribution

    dist = rank_type_census(FamilySpec("S1", 3, 3, 1))
    assert dist.entries == {(0, 1): 1, (3, 1): 13, (3, -1): 13}
    # the A1(2,5,2) census: b_0 = 1, total 32, min nonzero rank 4
    dist = rank_type_census(FamilySpec("A1", 2, 5, 2))
    assert dist.entries[0] == 1
    assert dist.total() == 32
    assert is_proper_d_code(dist, 4)
    # ...while the quadratic members themselves all have rank 5, type 1
    qdist = rank_type_census(FamilySpec("Q1", 2, 5, 2))
    assert qdist.entries == {(0, 0): 1, (5, 1): 31}
    # Q2(2,6,2) against A2 census: d_{2i,0} + d_{2i+1,1} + d_{2i,2} = b_{2i}
    qd = rank_type_census(FamilySpec("Q2", 2, 6, 2))
    ad = census_inner_distribution(FamilySpec("A2", 2, 6, 2))
    for rank in range(0, 7, 2):
        lhs = (
            qd.entries.get((rank, 0), 0)
            + qd.entries.get((rank + 1, 1), 0)
            + qd.entries.get((rank, 2), 0)
        )
        assert lhs == ad.entries.get(rank, 0)


def test_zero_code_edge():
    # the trivial subcode {0}: generator route on a full-degree generator
    fld = field_for(2, 3)
    from bchforms.bchcode import CyclicCode

    g = [1]
    for s in (0, 1, 3):
        from bchforms.bchcode import minimal_polynomial
        from bchforms import gfarith

        g = gfarith.poly_mul(fld.base, g, minimal_polynomial(fld, s))
    code = CyclicCode(field=fld, length=7, generator=g, dimension=0)
    dist = generator_route_weights(code)
    assert dist.counts == masked_generator_weights(code) == {0: 1}


def _appendix_by_matrix(q, m, forms):
    """Reference for appendix_census: the q^m x q^m matrix of Q(x) + l.x
    over every (l, x), its zeros of Q+L+c counted row by row, per c class;
    one table per form."""
    F = small_field(q)
    size = q ** m
    digs = digits(np.arange(size), q, m)
    lin = np.zeros((size, size), dtype=np.uint8)
    for a in range(m):
        lin = F.add[lin, F.mul[digs[:, a][:, None], digs[:, a][None, :]]]
    nonsquare = [min(set(range(1, q)) - F.squares)] if q % 2 else []
    cs = {"zero": [0], "square": [1], "nonsquare": nonsquare, "nonzero": [1], "nonzero-sum": range(1, q)}
    tables = []
    for form in forms:
        vals = F.add[form.values_by_index()[None, :], lin]
        table = {}
        for c_class, cls in cs.items():
            tally = table.setdefault(c_class, {})
            for c in cls:
                zeros = np.count_nonzero(vals == F.neg[c], axis=1)
                for z, freq in zip(*np.unique(zeros, return_counts=True)):
                    tally[int(z)] = tally.get(int(z), 0) + int(freq)
        tables.append(table)
    return tables


def test_appendix_census_matches_matrix_route():
    cases = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        classes = C_CLASSES_ODD if q % 2 else C_CLASSES_EVEN
        m = 1
        while q ** m <= 1 << 10:
            forms = [canonical_form(q, m, rt) for rt in all_rank_types(q, m)]
            for form, ref in zip(forms, _appendix_by_matrix(q, m, forms)):
                for c_class in classes:
                    assert oracle.appendix_census(q, m, form, c_class) == ref[c_class], (q, m, form.coeffs, c_class)
                    cases += 1
            m += 1
    assert cases == 671


def test_appendix_census_takes_the_c_classes_of_its_parity():
    # exactly the classes appendix_frequency_tables answers for; any other
    # is a typed refusal (even q has no nonsquare, odd q no single "nonzero")
    for q in (2, 3, 4, 5):
        classes = C_CLASSES_ODD if q % 2 else C_CLASSES_EVEN
        rt = RankType(2, 1 if q % 2 else 0)
        form = canonical_form(q, 3, rt)
        for c_class in sorted(set(C_CLASSES_ODD + C_CLASSES_EVEN + ("bogus",))):
            if c_class in classes:
                counted = oracle.appendix_census(q, 3, form, c_class)
                assert counted == appendix_frequency_tables(q, 3, rt, c_class), (q, c_class)
            else:
                with pytest.raises(OutOfRange):
                    oracle.appendix_census(q, 3, form, c_class)


def test_appendix_census_memory():
    # the matrix route needs about 24 q^(2m) bytes, 6 GB here
    rt = RankType(2, 0)
    form = canonical_form(2, 14, rt)
    tracemalloc.start()
    try:
        counted = oracle.appendix_census(2, 14, form, "zero", EnumerationBudget())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert counted == appendix_frequency_tables(2, 14, rt, "zero")


def test_appendix_census_memory_at_large_q():
    # the Walsh rounds hold a few float32 arrays of q*q^m entries; the
    # earlier gather rounds held q^2*q^m int32 entries, 23 MB here
    q, m = 7, 6
    rt = RankType(m, 1)
    form = canonical_form(q, m, rt)
    tracemalloc.start()
    try:
        counted = oracle.appendix_census(q, m, form, "square", EnumerationBudget())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 4 * q ** (m + 1) < 4 * q ** (m + 2), peak
    assert counted == appendix_frequency_tables(q, m, rt, "square")
