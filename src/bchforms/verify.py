"""Property suites behind `bchforms verify`: every closed form in the
package played against its exhaustive oracle at a configurable budget.

Each check returns (name, ok, detail); a suite is the list of its checks.
"""

from __future__ import annotations

from functools import cache

from . import cyclotomic as cyc
from . import oracle as orc
from . import weights as wts
from .bchcode import generator_polynomial
from .errors import BchFormsError, BudgetExceeded, OutOfRange
from .forms import all_rank_types, canonical_form, classify_quadratic
from .gfarith import prime_power
from .schemes import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    FamilySpec,
    census_inner_distribution,
    dg_bound,
    enumerate_family,
    family_design_check,
    is_proper_d_code,
    schmidt_for_family,
    t_design_check,
)

Check = tuple[str, bool, str]


def _qs(q: int | None) -> tuple[int, ...]:
    """The field sizes a suite covers: q alone when given (NotPrime unless
    it is a prime power), else 2, 3, 4 and 5."""
    if q is None:
        return 2, 3, 4, 5
    prime_power(q)
    return (q,)


def verify_cosets(q: int | None = None, max_m: int = 10,
                  budget: EnumerationBudget = DEFAULT_BUDGET) -> list[Check]:
    out: list[Check] = []
    for qq in _qs(q):
        for m in range(cyc.least_m(qq), max_m + 1):
            if qq ** m > min(budget.max_field_size, 1 << 14):
                continue
            n = qq ** m - 1
            leaders = cyc.all_coset_leaders(qq, m)
            ok = sum(s for _, s in leaders) == n
            out.append((f"coset-partition q={qq} m={m}", ok, f"{len(leaders)} cosets"))
            delta = (qq - 1) * qq ** (m - 1) - 1
            for i in cyc.theorem_i_range(qq, m):
                delta_i = delta - qq ** i
                if delta_i < 2:
                    continue
                expected = sorted({delta} | {delta - qq ** j for j in cyc.theorem_i_range(qq, m) if j <= i})
                got = cyc.coset_leaders_geq(delta_i, qq, m)
                out.append(
                    (f"leader-set q={qq} m={m} i={i}", got == expected, f"{got}")
                )
                closed = cyc.closed_dimension(m, i)
                got_dim = cyc.bch_dimension(qq, m, delta_i)
                out.append(
                    (f"dimension q={qq} m={m} i={i}", got_dim == closed, f"{got_dim}")
                )
    return out


FORM_FAMILIES = [(2, 5, 2), (2, 6, 2), (3, 3, 1), (3, 4, 1), (4, 2, 1), (4, 3, 1), (5, 2, 1)]


def verify_forms(q: int | None = None, budget: EnumerationBudget = DEFAULT_BUDGET) -> list[Check]:
    import numpy as np

    from .forms import count_solutions_closed

    out: list[Check] = []
    qs = _qs(q)
    for qq, m, i in FORM_FAMILIES:
        if qq not in qs:
            continue
        bad = 0
        n_forms = 0
        for form in enumerate_family(FamilySpec.quadratic(qq, m, i), budget):
            rt = classify_quadratic(form)
            n_forms += 1
            if rt.rank == 0:
                continue
            hist = np.bincount(form.values_by_index(), minlength=qq)
            for h in range(qq):
                if count_solutions_closed(qq, rt, h, m) != hist[h]:
                    bad += 1
        out.append(
            (f"solution-counts q={qq} m={m} i={i}", bad == 0, f"{n_forms} forms, {bad} mismatches")
        )
    return out


SCHMIDT_FAMILIES = [("S1", 3, 3, 1), ("S2", 3, 4, 1), ("S2", 3, 4, 2), ("S1", 5, 3, 1), ("S2", 5, 4, 1)]
CORRESPONDENCE_ODD = [("Q1", "S1", 3, 3, 1), ("Q2", "S2", 3, 4, 2), ("Q1", "S1", 5, 3, 1)]
CORRESPONDENCE_EVEN = [("Q1", "A1", 2, 5, 2), ("Q2", "A2", 2, 6, 2), ("Q2", "A2", 2, 6, 3), ("Q1", "A1", 4, 3, 1)]


def verify_schemes(q: int | None = None, m: int | None = None, i: int | None = None,
                   budget: EnumerationBudget = DEFAULT_BUDGET) -> list[Check]:
    out: list[Check] = []
    qs = _qs(q)
    # the Schmidt list, the correspondences and the dg-bound check share
    # families; each census is computed once
    census = cache(lambda spec: census_inner_distribution(spec, budget))
    schmidt_cases = SCHMIDT_FAMILIES
    if None not in (q, m, i):
        schmidt_cases = [("S1" if m % 2 else "S2", q, m, i)]
    for kind, qq, mm, ii in schmidt_cases:
        if qq not in qs:
            continue
        spec = FamilySpec(kind, qq, mm, ii)  # a family that does not exist is an input error
        try:
            counted = census(spec)
            closed = schmidt_for_family(spec)
            ok = closed.entries == counted.entries
            detail = "entrywise equal" if ok else f"closed={closed.entries} census={counted.entries}"
        except BudgetExceeded:
            raise  # a refusal is an error of the run, not a failed check
        except BchFormsError as exc:
            ok, detail = False, str(exc)
        out.append((f"schmidt-vs-census {kind}({qq},{mm},{ii})", ok, detail))
    for qk, sk, qq, mm, ii in CORRESPONDENCE_ODD:
        if qq not in qs:
            continue
        qd = orc.rank_type_census(FamilySpec(qk, qq, mm, ii), budget)
        sd = census(FamilySpec(sk, qq, mm, ii))
        out.append(
            (f"correspondence-odd {qk}~{sk}({qq},{mm},{ii})", qd.entries == sd.entries, "")
        )
    for qk, ak, qq, mm, ii in CORRESPONDENCE_EVEN:
        if qq not in qs:
            continue
        qd = orc.rank_type_census(FamilySpec(qk, qq, mm, ii), budget)
        ad = census(FamilySpec(ak, qq, mm, ii))
        ok = True
        for rank in range(0, mm + 1, 2):
            lhs = (
                qd.entries.get((rank, 0), 0)
                + qd.entries.get((rank + 1, 1), 0)
                + qd.entries.get((rank, 2), 0)
            )
            ok = ok and lhs == ad.entries.get(rank, 0)
        out.append((f"correspondence-even {qk}~{ak}({qq},{mm},{ii})", ok, ""))
    if 2 in qs:
        ad = census(FamilySpec("A1", 2, 5, 2))
        ok = is_proper_d_code(ad, 4) and ad.total() == dg_bound(5, 2, 2)
        out.append(("dg-bound-attained A1(2,5,2)", ok, f"|Y|={ad.total()} bound={dg_bound(5, 2, 2)}"))
    if 3 in qs:
        ok = family_design_check(FamilySpec("S1", 3, 3, 1), 2, budget)
        out.append(("2-design S1(3,3,1)", ok, ""))
        members = list(enumerate_family(FamilySpec("S1", 3, 3, 1), budget))
        corrupted = [g for g in members if g.entries.any()][:-1]
        corrupted += [g for g in members if not g.entries.any()]
        ok = not t_design_check(corrupted, 2, 3, 3)
        out.append(("2-design negative control", ok, "corrupted family must fail"))
    for qq in (3, 5, 7, 9):  # all four by default, beyond the fields of _qs(None)
        if q not in (None, qq):
            continue
        ok = all(
            wts.intersection_table(qq, b) == wts.intersection_table_census(qq, b)
            for b in range(qq)
        )
        out.append((f"intersection-table q={qq}", ok, ""))
    return out


def verify_appendix(q: int | None = None, max_m: int = 4,
                    budget: EnumerationBudget = DEFAULT_BUDGET) -> list[Check]:
    out: list[Check] = []
    for qq in _qs(q):
        for m in range(2, max_m + 1):
            classes = wts.C_CLASSES_ODD if qq % 2 else wts.C_CLASSES_EVEN
            bad = []
            for rt in all_rank_types(qq, m):
                form = canonical_form(qq, m, rt)
                for c_class in classes:
                    closed = wts.appendix_frequency_tables(qq, m, rt, c_class)
                    counted = orc.appendix_census(qq, m, form, c_class, budget)
                    if closed != counted:
                        bad.append((rt.rank, rt.type, c_class))
            out.append(
                (f"appendix-tables q={qq} m={m}", not bad, f"mismatches: {bad}" if bad else "all ranks/types")
            )
    return out


def verify_examples(q: int | None = None, budget: EnumerationBudget = DEFAULT_BUDGET,
                    workers: int | None = None) -> list[Check]:
    """The worked examples: closed enumerators against full enumeration."""
    out: list[Check] = []
    qs = _qs(q)
    for qq, m, i in [(3, 3, 1), (3, 4, 2)]:
        params = cyc.code_params(qq, m, i)
        if qq not in qs or qq ** params.dimension > budget.max_codewords:
            continue
        closed = wts.code_enumerator_odd(params)
        brute = orc.trace_route_weights(params, budget, workers)
        out.append(
            (f"enumerator-closed-vs-oracle ({qq},{m},{i})", closed.counts == brute.counts, "")
        )
    for qq, m, i in [(2, 6, 2), (2, 6, 3)]:
        params = cyc.code_params(qq, m, i)
        if qq not in qs or qq ** params.dimension > budget.max_codewords:
            continue
        d, witness = wts.min_distance_even(params, budget)
        brute = orc.trace_route_weights(params, budget, workers)
        ok = d == params.delta_i == brute.min_positive_weight() and witness["weight"] == d
        out.append((f"min-distance-even ({qq},{m},{i})", ok, f"d={d}"))
    # one generator-vs-trace route agreement
    params = cyc.code_params(2, 4, 1)
    if 2 in qs and 2 ** params.dimension <= budget.max_codewords:
        code = generator_polynomial(2, 4, params.delta_i)
        ok = (orc.generator_route_weights(code, budget).counts
              == orc.trace_route_weights(params, budget, workers).counts)
        out.append(("route-agreement (2,4,1)", ok, ""))
    return out


def run_suite(name: str, q: int | None = None, m: int | None = None, i: int | None = None,
              max_m: int | None = None, budget: EnumerationBudget = DEFAULT_BUDGET,
              workers: int | None = None) -> list[Check]:
    """The checks of one suite, or of every suite for 'all'.  A run whose
    inputs and budget leave no check raises OutOfRange: it verified nothing."""
    suites = {
        "cosets": lambda: verify_cosets(q, 10 if max_m is None else max_m, budget),
        "forms": lambda: verify_forms(q, budget),
        "schemes": lambda: verify_schemes(q, m, i, budget),
        "appendix": lambda: verify_appendix(q, 4 if max_m is None else max_m, budget),
        "examples": lambda: verify_examples(q, budget, workers),
    }
    if name != "all" and name not in suites:
        raise OutOfRange(f"unknown suite {name}; pick from {sorted(suites)} or 'all'")
    chosen = suites.values() if name == "all" else [suites[name]]
    checks = [check for suite in chosen for check in suite()]
    if not checks:
        raise OutOfRange(f"verify {name} ran no check: every case is outside its range or the budget")
    return checks
