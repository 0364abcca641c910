"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest -v tests/test_acceptance.py` (the long sweep in criterion 4
enumerates up to 2^24 codewords per parameter set; it took 7 s, and the
whole file 14 s, on 2 cores with numpy).
"""

import time

import pytest

from bchforms import oracle as orc
from bchforms import weights as wts
from bchforms.cyclotomic import code_params, theorem_sweep
from bchforms.errors import BudgetExceeded
from bchforms.forms import RankType, all_rank_types, canonical_form, classify_quadratic
from bchforms.oracle import EnumerationBudget
from bchforms.schemes import (
    FamilySpec,
    census_inner_distribution,
    dg_bound,
    enumerate_family,
    family_design_check,
    is_proper_d_code,
    schmidt_for_family,
    t_design_check,
)
from bchforms.verify import verify_cosets

EXAMPLE_331 = {0: 1, 14: 390, 15: 312, 17: 520, 18: 260, 20: 546, 21: 156, 26: 2}
EXAMPLE_342 = {
    0: 1, 44: 3800, 45: 3040, 47: 14400, 48: 9900, 50: 17136, 51: 10080,
    53: 33280, 54: 16640, 56: 34200, 57: 14400, 59: 10080, 60: 3528,
    62: 5040, 63: 1440, 71: 160, 72: 20, 80: 2,
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_example_331():
    t0 = time.time()
    params = code_params(3, 3, 1)
    closed = wts.code_enumerator_odd(params)
    brute = orc.trace_route_weights(params)
    elapsed = time.time() - t0
    ok = closed.counts == EXAMPLE_331 == brute.counts and elapsed < 10
    report("1 (q=3,m=3,i=1 enumerator, closed == paper == oracle)", ok, f"{elapsed:.2f}s")


def test_criterion_2_example_342():
    t0 = time.time()
    params = code_params(3, 4, 2)
    closed = wts.code_enumerator_odd(params)
    brute = orc.trace_route_weights(params)
    elapsed = time.time() - t0
    ok = closed.counts == EXAMPLE_342 == brute.counts and elapsed < 300
    report("2 (q=3,m=4,i=2 17-term enumerator == 3^11 oracle)", ok, f"{elapsed:.2f}s")


def test_criterion_3_example_binary_m6():
    t0 = time.time()
    results = {}
    for i, want_d, want_k in [(2, 27, 10), (3, 23, 16)]:
        params = code_params(2, 6, i)
        assert params.dimension == want_k
        dist = orc.trace_route_weights(params)
        d_cert, witness = wts.min_distance_even(params)
        results[i] = (dist.min_positive_weight(), d_cert, witness["weight"])
        assert results[i] == (want_d, want_d, want_d), results[i]
    elapsed = time.time() - t0
    report("3 (q=2,m=6: oracle and witness min distances 27/23, dims 10/16)",
           elapsed < 120, f"{elapsed:.2f}s {results}")


def test_criterion_4_main_theorem_sweep():
    t0 = time.time()
    budget = EnumerationBudget.from_env()
    sweep = theorem_sweep(max_codewords=budget.max_codewords)
    assert sweep, "empty sweep"
    failures = []
    for params in sweep:
        t1 = time.time()
        d = orc.trace_route_weights(params).min_positive_weight()
        if d != params.delta_i:
            failures.append((params.q, params.m, params.i, d))
        print(
            f"  sweep ({params.q},{params.m},{params.i}) dim={params.dimension}: "
            f"d={d} delta_i={params.delta_i} [{time.time()-t1:.1f}s]",
            flush=True,
        )
    elapsed = time.time() - t0
    report("4 (main theorem: oracle min distance = delta_i over full sweep)",
           not failures, f"{len(sweep)} parameter sets, {elapsed:.1f}s, failures={failures}")


def test_criterion_5_schmidt_vs_census():
    s1 = FamilySpec("S1", 3, 3, 1)
    ok1 = (
        schmidt_for_family(s1).entries
        == census_inner_distribution(s1).entries
        == {(0, 1): 1, (3, 1): 13, (3, -1): 13}
    )
    s2 = FamilySpec("S2", 3, 4, 2)
    closed = schmidt_for_family(s2)
    census = census_inner_distribution(s2)
    ok2 = closed.entries == census.entries and closed.total() == 729
    report("5 (closed-form inner distributions == census for S1(3,3,1) and S2(3,4,2))",
           ok1 and ok2, f"S2 census: {census.entries}")


def test_criterion_6_appendix_tables():
    t0 = time.time()
    bad = []
    for q in (2, 3, 4, 5):
        for m in range(2, 5):
            classes = wts.C_CLASSES_ODD if q % 2 else wts.C_CLASSES_EVEN
            for rt in all_rank_types(q, m):
                form = canonical_form(q, m, rt)
                if classify_quadratic(form) != rt:
                    bad.append((q, m, rt, "canonical misclassified"))
                    continue
                for c_class in classes:
                    closed = wts.appendix_frequency_tables(q, m, rt, c_class)
                    counted = orc.appendix_census(q, m, form, c_class)
                    if closed != counted:
                        bad.append((q, m, rt.rank, rt.type, c_class))
    elapsed = time.time() - t0
    report("6 (appendix N(f) tables == exhaustive (L,c) counts, q<=5, m<=4)",
           not bad and elapsed < 300, f"{elapsed:.1f}s failures={bad}")


def test_criterion_7_property_suites():
    details = []
    # closed leader-set description across the theorem range
    coset_checks = verify_cosets()
    details.append(("leader-sets", all(ok for _, ok, _ in coset_checks)))
    # quadratic-vs-bilinear census correspondences, both parities
    ok_odd = True
    for qk, sk, q, m, i in [("Q1", "S1", 3, 3, 1), ("Q2", "S2", 3, 4, 2)]:
        ok_odd = ok_odd and (
            orc.rank_type_census(FamilySpec(qk, q, m, i)).entries
            == census_inner_distribution(FamilySpec(sk, q, m, i)).entries
        )
    details.append(("correspondence-odd", ok_odd))
    ok_even = True
    for qk, ak, q, m, i in [("Q1", "A1", 2, 5, 2), ("Q2", "A2", 2, 6, 3)]:
        qd = orc.rank_type_census(FamilySpec(qk, q, m, i))
        ad = census_inner_distribution(FamilySpec(ak, q, m, i))
        for rank in range(0, m + 1, 2):
            lhs = (
                qd.entries.get((rank, 0), 0)
                + qd.entries.get((rank + 1, 1), 0)
                + qd.entries.get((rank, 2), 0)
            )
            ok_even = ok_even and lhs == ad.entries.get(rank, 0)
    details.append(("correspondence-even", ok_even))
    # A1(2,5,2): proper 4-code attaining the size bound
    ad = census_inner_distribution(FamilySpec("A1", 2, 5, 2))
    details.append(("A1-proper-4-code", is_proper_d_code(ad, 4)))
    details.append(("A1-meets-dg-bound", ad.total() == dg_bound(5, 2, 2)))
    # 2-design property of S1(3,3,1), with negative control
    details.append(("S1-2-design", family_design_check(FamilySpec("S1", 3, 3, 1), 2)))
    members = list(enumerate_family(FamilySpec("S1", 3, 3, 1)))
    corrupted = [g for g in members if g.entries.any()][:-1] + [
        g for g in members if not g.entries.any()
    ]
    details.append(("corrupted-family-fails", not t_design_check(corrupted, 2, 3, 3)))
    # square-class intersection tuples
    ok_t6 = all(
        wts.intersection_table(q, b) == wts.intersection_table_census(q, b)
        for q in (3, 5, 7, 9)
        for b in range(q)
    )
    details.append(("square-class-tables", ok_t6))
    report("7 (leader sets / census correspondences / proper codes + bound / designs / square-class tables)",
           all(ok for _, ok in details), str(details))


def test_criterion_8_full_scale_closed_forms_only():
    # far beyond any enumeration budget: closed-form outputs must still be
    # internally consistent, and the oracle must refuse rather than run
    cases = [(5, 9, 4), (5, 10, 4), (3, 13, 6), (7, 7, 3)]
    for q, m, i in cases:
        params = code_params(q, m, i)
        enum = wts.code_enumerator_odd(params)
        assert enum.total() == q ** params.dimension, (q, m, i)
        assert enum.min_positive_weight() == params.delta_i, (q, m, i)
        assert all(c > 0 for c in enum.counts.values())
        with pytest.raises(BudgetExceeded):
            orc.trace_route_weights(params)
    report("8 (full-scale closed forms: exact totals, integrality, min key = delta_i; oracle refuses)",
           True, f"{len(cases)} parameter sets")
