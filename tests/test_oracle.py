import numpy as np
import pytest

from bchforms import kernels, oracle
from bchforms.bchcode import generator_polynomial
from bchforms.cyclotomic import code_params
from bchforms.errors import BchFormsError, BudgetExceeded, CountMismatch, OutOfRange
from bchforms.gfarith import field_for
from bchforms.oracle import (
    EnumerationBudget,
    count_zeros,
    enumerate_code_weights,
    generator_route_weights,
    rank_type_census,
    trace_route_weights,
    weight_of_function,
)
from bchforms.weights import code_enumerator_odd


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


def test_budget_refusal():
    params = code_params(3, 3, 1)
    with pytest.raises(BudgetExceeded):
        trace_route_weights(params, EnumerationBudget(max_codewords=100))


def test_trace_route_331_matches_closed_form():
    params = code_params(3, 3, 1)
    dist = trace_route_weights(params)
    assert dist.counts == code_enumerator_odd(params).counts


def test_routes_agree_desk_scale():
    for q, m, i in [(3, 3, 1), (2, 4, 1), (2, 4, 2), (2, 6, 2), (4, 2, 1)]:
        params = code_params(q, m, i)
        fld = field_for(q, m)
        code = generator_polynomial(q, m, params.delta_i, fld)
        trace = trace_route_weights(params)
        gen = generator_route_weights(code)
        assert trace.counts == gen.counts, (q, m, i)
        assert trace.total() == q ** params.dimension


def test_enumerate_code_weights_dispatch():
    params = code_params(2, 4, 1)
    code = generator_polynomial(2, 4, params.delta_i)
    assert enumerate_code_weights(params).counts == enumerate_code_weights(code).counts


def test_worker_count_independence():
    params = code_params(2, 6, 3)
    one = trace_route_weights(params, workers=1)
    two = trace_route_weights(params, workers=2)
    three = trace_route_weights(params, workers=3)
    assert one.counts == two.counts == three.counts
    assert one.min_positive_weight() == 23


def test_worker_count_independence_pooled(monkeypatch):
    started = []

    class RecordingPool(oracle.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(oracle, "ThreadPoolExecutor", RecordingPool)
    params = code_params(4, 6, 2)
    one = trace_route_weights(params, workers=1)
    two = trace_route_weights(params, workers=2)
    three = trace_route_weights(params, workers=3)
    assert started == [2, 3]
    assert one.counts == two.counts == three.counts
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


def test_count_zeros_and_weight():
    fld = field_for(3, 3)
    assert count_zeros(lambda x: 0, fld.size) == 27
    assert weight_of_function(lambda x: 0, fld.size) == 0
    # nonzero linear Tr(mu x): kernel of a surjective GF(q)-linear map
    mu = fld.alpha
    f = lambda x: fld.trace_to_base(fld.mul(mu, x))  # noqa: E731
    assert count_zeros(f, fld.size) == 9
    assert weight_of_function(f, fld.size) == 27 - 9
    with pytest.raises(BudgetExceeded):
        count_zeros(lambda x: 0, 10 ** 9)


def test_rank_type_census_examples():
    from bchforms.schemes import FamilySpec, census_inner_distribution

    dist = rank_type_census(FamilySpec("S1", 3, 3, 1))
    assert dist.entries == {(0, 1): 1, (3, 1): 13, (3, -1): 13}
    # the A1(2,5,2) census: b_0 = 1, total 32, min nonzero rank 4
    dist = rank_type_census(FamilySpec("A1", 2, 5, 2))
    assert dist.entries[0] == 1
    assert dist.total() == 32
    assert dist.min_nonzero_rank() == 4
    # ...while the quadratic members themselves all have rank 5, type 1
    qdist = rank_type_census(2, 5, 2)
    assert qdist.entries == {(0, 0): 1, (5, 1): 31}
    # Q2(2,6,2) against A2 census: d_{2i,0} + d_{2i+1,1} + d_{2i,2} = b_{2i}
    qd = rank_type_census(2, 6, 2)
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
    assert dist.counts == {0: 1}
