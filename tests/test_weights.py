import numpy as np
import pytest

from bchforms import kernels, oracle, weights
from bchforms.cyclotomic import code_params
from bchforms.errors import BchFormsError, EvenCharacteristic, ForbiddenRankType, OutOfRange, RankZero
from bchforms.forms import RankType, all_rank_types, canonical_form, classify_quadratic
from bchforms.gfarith import field_for
from bchforms.schemes import FamilySpec, enumerate_family
from bchforms.weights import (
    appendix_frequency_tables,
    code_enumerator_odd,
    coset_enumerator_even,
    coset_enumerator_odd,
    intersection_table,
    intersection_table_census,
    min_distance_even,
    prm_enumerator,
)

def coset_weights(fld, qv) -> dict[int, int]:
    """Weight multiset of the PRM coset of the value vector qv, by the
    exhaustive coset kernel (all q^(m+1) words)."""
    counts = np.zeros(fld.n + 1, dtype=np.int64)
    kernels.coset_weight_counts(np.asarray(qv, dtype=np.int64), *kernels.field_inputs(fld), counts)
    return {w: int(c) for w, c in enumerate(counts) if c}


EXAMPLE_331 = {0: 1, 14: 390, 15: 312, 17: 520, 18: 260, 20: 546, 21: 156, 26: 2}

EXAMPLE_342 = {
    0: 1, 44: 3800, 45: 3040, 47: 14400, 48: 9900, 50: 17136, 51: 10080,
    53: 33280, 54: 16640, 56: 34200, 57: 14400, 59: 10080, 60: 3528,
    62: 5040, 63: 1440, 71: 160, 72: 20, 80: 2,
}


def test_prm_enumerator_examples():
    assert prm_enumerator(2, 3).counts == {0: 1, 3: 7, 4: 7, 7: 1}
    assert prm_enumerator(3, 3).counts == {0: 1, 17: 52, 18: 26, 26: 2}
    for q, m in [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 1)]:
        enum = prm_enumerator(q, m)
        assert enum.total() == q ** (m + 1)
        # cross-check against actual enumeration: the PRM code is the coset of Q = 0
        fld = field_for(q, m)
        assert enum.counts == coset_weights(fld, np.zeros(fld.n)), (q, m)


def test_coset_enumerator_odd_example():
    expect = {14: 15, 15: 12, 17: 18, 18: 9, 20: 21, 21: 6}
    assert coset_enumerator_odd(3, 3, RankType(3, -1)).counts == expect
    assert coset_enumerator_odd(3, 3, RankType(3, 1)).counts == expect
    assert coset_enumerator_odd(3, 3, RankType(3, 1)).total() == 81
    with pytest.raises(RankZero):
        coset_enumerator_odd(3, 3, RankType(0, 1))
    with pytest.raises(EvenCharacteristic):
        coset_enumerator_odd(2, 3, RankType(1, 1))


def test_coset_enumerator_even_examples():
    assert coset_enumerator_even(2, 3, RankType(3, 1)).counts == {1: 1, 2: 3, 3: 4, 4: 4, 5: 3, 6: 1}
    enum = coset_enumerator_even(2, 3, RankType(2, 0))
    assert 8 - 4 - 2 - 1 in enum.counts  # min-weight row of the type-0 table
    assert enum.total() == 16
    with pytest.raises(RankZero):
        coset_enumerator_even(2, 3, RankType(0, 0))


@pytest.mark.parametrize("enumerator, q, m, rt", [
    (coset_enumerator_even, 2, 3, RankType(2, 1)),
    (coset_enumerator_even, 2, 3, RankType(3, 0)),
    (coset_enumerator_odd, 3, 3, RankType(2, 0)),
    (coset_enumerator_odd, 3, 3, RankType(5, 1)),
])
def test_coset_enumerator_rejects_absent_rank_type(enumerator, q, m, rt):
    # no form of this rank and type exists on GF(q)^m
    with pytest.raises(OutOfRange):
        enumerator(q, m, rt)


def test_coset_enumerators_every_rank_type():
    """Every rank/type, not only those a family reaches: the closed table
    equals the brute-force weight multiset of the canonical form's coset."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = 1
        while q ** m <= 1 << 10:
            fld = field_for(q, m)
            for rt in all_rank_types(q, m):
                qv = canonical_form(q, m, rt).values_by_index()[fld.exp_index]
                closed = coset_enumerator_odd(q, m, rt) if q % 2 else coset_enumerator_even(q, m, rt)
                assert closed.counts == coset_weights(fld, qv), (q, m, rt)
            m += 1


def test_coset_enumerators_match_bruteforce_over_families():
    """Every rank/type reachable in desk-scale families: the closed table
    equals the brute-force weight multiset of an actual coset."""
    cases = [(3, 3, 1), (3, 4, 1), (3, 4, 2), (5, 2, 1), (2, 5, 2), (2, 6, 2), (2, 6, 3), (4, 2, 1), (4, 3, 1)]
    for q, m, i in cases:
        fld = field_for(q, m)
        seen = set()
        for form in enumerate_family(FamilySpec.quadratic(q, m, i)):
            rt = classify_quadratic(form)
            if rt.rank == 0 or rt in seen:
                continue
            seen.add(rt)
            brute = coset_weights(fld, form.value_vec())
            closed = (
                coset_enumerator_odd(q, m, rt) if q % 2 else coset_enumerator_even(q, m, rt)
            )
            assert closed.counts == brute, (q, m, i, rt)
        assert seen, (q, m, i)


def test_code_enumerator_odd_331():
    enum = code_enumerator_odd(code_params(3, 3, 1))
    assert enum.counts == EXAMPLE_331
    assert enum.min_positive_weight() == 14


def test_code_enumerator_odd_342():
    enum = code_enumerator_odd(code_params(3, 4, 2))
    assert enum.counts == EXAMPLE_342
    assert enum.min_positive_weight() == 44
    assert enum.total() == 3 ** 11


def test_code_enumerator_odd_full_scale_consistency():
    # criterion-8 style: far beyond enumeration, closed form must still be
    # internally consistent (exact total, integrality, min key = delta_i)
    for q, m, i in [(5, 9, 4), (3, 11, 5), (7, 7, 3)]:
        params = code_params(q, m, i)
        enum = code_enumerator_odd(params)
        assert enum.total() == q ** params.dimension
        assert enum.min_positive_weight() == params.delta_i


def test_min_distance_even_examples():
    d, witness = min_distance_even(code_params(2, 6, 2))
    assert d == 27 and witness["weight"] == 27
    assert (witness["rank"], witness["type"]) in {(2 * 6 - 2 * 2 - 1, 1), (2 * 6 - 2 * 2 - 2, 2)}
    d, witness = min_distance_even(code_params(2, 6, 3))
    assert d == 23 and witness["weight"] == 23
    d, witness = min_distance_even(code_params(2, 5, 2))
    assert d == 32 - 16 - 4 - 1 == 11
    with pytest.raises(EvenCharacteristic):
        min_distance_even(code_params(3, 3, 1))


def test_min_distance_even_forbidden_member(monkeypatch):
    # a nonzero member of rank 2m-2i-2 type 0 is a typed refusal; the zero
    # member, first in the scan, is exempt (it is that class at m = 2)
    monkeypatch.setattr(weights, "classify_quadratic", lambda form: RankType(6, 0))
    with pytest.raises(ForbiddenRankType, match="forbidden rank 6 type 0") as refused:
        min_distance_even(code_params(2, 6, 2))
    assert "(0,)" not in str(refused.value)
    assert issubclass(ForbiddenRankType, BchFormsError)


def test_appendix_tables_vs_oracle_small():
    for q, m in [(2, 3), (3, 3), (4, 2), (7, 2), (8, 2), (9, 2), (8, 3), (9, 3)]:
        classes = weights.C_CLASSES_ODD if q % 2 else weights.C_CLASSES_EVEN
        for rt in all_rank_types(q, m):
            form = canonical_form(q, m, rt)
            assert classify_quadratic(form) == rt  # canonical round trip
            for c_class in classes:
                closed = appendix_frequency_tables(q, m, rt, c_class)
                counted = oracle.appendix_census(q, m, form, c_class)
                assert closed == counted, (q, m, rt, c_class)
                expect_total = (q - 1) * q ** m if c_class == "nonzero-sum" else q ** m
                assert sum(closed.values()) == expect_total


def test_appendix_example_even_type1():
    # N = q^(m-1) occurs q^m - q^(2r+1) + q^(2r) times for c = 0
    q, m, r = 2, 3, 1
    table = appendix_frequency_tables(q, m, RankType(2 * r + 1, 1), "zero")
    assert table[q ** (m - 1)] == q ** m - q ** (2 * r + 1) + q ** (2 * r)
    # brute-force confirmed values for rank 3 type 1 on GF(2)^3
    assert table == {4: 4, 6: 3, 2: 1}


def test_intersection_table_examples():
    assert intersection_table(5, 0) == (1, 0, 0, 0, 2, 0, 0, 0, 2)
    assert intersection_table(5, 1) == (0, 1, 0, 1, 0, 1, 0, 1, 1)
    assert intersection_table(3, 1) == (0, 0, 1, 1, 0, 0, 0, 1, 0)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_intersection_table_matches_census(q):
    for b in range(q):
        assert intersection_table(q, b) == intersection_table_census(q, b), (q, b)
        assert sum(intersection_table(q, b)) == q
