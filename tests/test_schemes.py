
import functools

import numpy as np
import pytest

from bchforms import schemes, verify
from bchforms.cyclotomic import code_params
from bchforms.errors import BudgetExceeded, ParityMismatch
from bchforms.forms import GramMatrix, classify_quadratic, family_slots
from bchforms.gfarith import field_for, small_field
from field_reference import power
from bchforms.oracle import rank_type_census
from bchforms.schemes import (
    EnumerationBudget,
    FamilySpec,
    census_inner_distribution,
    dg_bound,
    enumerate_family,
    family_design_check,
    family_lambdas,
    is_d_code,
    is_proper_d_code,
    qsq_binomial,
    schmidt_for_family,
    schmidt_inner_distribution,
    subspace_representatives,
    t_design_check,
)
from bchforms.weights import min_distance_even


def test_family_spec_parity():
    FamilySpec("S1", 3, 3, 1)
    with pytest.raises(ParityMismatch):
        FamilySpec("S1", 3, 4, 1)
    with pytest.raises(ParityMismatch):
        FamilySpec("S2", 3, 3, 1)
    with pytest.raises(ParityMismatch):
        FamilySpec("A1", 3, 3, 1)
    with pytest.raises(ParityMismatch):
        FamilySpec("S2", 2, 6, 2)


def test_family_sizes():
    assert FamilySpec("S2", 3, 4, 1).size == 9
    assert FamilySpec("S1", 3, 3, 1).size == 27
    assert FamilySpec("A1", 2, 5, 2).size == 32
    assert FamilySpec("Q2", 2, 6, 2).size == 8
    for spec in [FamilySpec("S1", 3, 3, 1), FamilySpec("A1", 2, 5, 2), FamilySpec("Q2", 2, 6, 2)]:
        assert sum(1 for _ in enumerate_family(spec)) == spec.size


def test_census_s1_331():
    dist = census_inner_distribution(FamilySpec("S1", 3, 3, 1))
    assert dist.entries == {(0, 1): 1, (3, 1): 13, (3, -1): 13}


def test_census_zero_member_and_sum_rule():
    for spec in [
        FamilySpec("S1", 3, 3, 1),
        FamilySpec("S2", 3, 4, 1),
        FamilySpec("A1", 2, 5, 2),
        FamilySpec("A2", 2, 6, 3),
        FamilySpec("Q1", 3, 3, 1),
        FamilySpec("Q2", 2, 6, 2),
    ]:
        dist = census_inner_distribution(spec)
        assert dist.total() == spec.size
        zero_key = 0 if spec.scheme_kind == "Alt" else (0, 0 if spec.q % 2 == 0 else 1)
        assert dist.entries[zero_key] == 1


def test_census_a1_252_proper_4code_meets_dg_bound():
    dist = census_inner_distribution(FamilySpec("A1", 2, 5, 2))
    assert dist.entries.get(2, 0) == 0
    assert dist.entries.get(4, 0) > 0
    assert is_d_code(dist, 4) and is_proper_d_code(dist, 4)
    assert dg_bound(5, 2, 2) == 32 == dist.total()


def test_qsq_binomial_examples():
    assert qsq_binomial(5, 0, 3) == 1
    # product formula: prod_{i=1..k} (q^(2n-2i+2)-1)/(q^(2i)-1)
    assert qsq_binomial(1, 1, 3) == 1
    assert qsq_binomial(2, 1, 3) == 10
    assert qsq_binomial(2, 1, 2) == 5
    assert qsq_binomial(2, 3, 3) == 0
    # Pascal-type recurrence in base q^2
    for n in range(1, 5):
        for k in range(1, n + 1):
            lhs = qsq_binomial(n, k, 3)
            rhs = qsq_binomial(n - 1, k, 3) + 9 ** (n - k) * qsq_binomial(n - 1, k - 1, 3)
            assert lhs == rhs


def test_dg_bound_examples():
    assert dg_bound(3, 0, 2) == 64
    assert dg_bound(5, 2, 2) == 32
    assert dg_bound(4, 2, 2) == 8


def test_schmidt_s1_331_matches_census():
    spec = FamilySpec("S1", 3, 3, 1)
    closed = schmidt_for_family(spec)
    census = census_inner_distribution(spec)
    assert closed.entries == census.entries


def test_schmidt_odd2_matches_census_s1_331():
    # the same family is a (2l)-code and (2n-2l+1, eta(-1)^(n-l+1))-design
    # with l = 1; the second odd-dimension formula must agree
    spec = FamilySpec("S1", 3, 3, 1)
    closed = schmidt_inner_distribution("odd2", 1, 1, 27, 3)
    assert closed.entries == census_inner_distribution(spec).entries


@pytest.mark.parametrize(
    "kind,q,m,i",
    [
        ("S2", 3, 4, 1),
        ("S2", 3, 4, 2),
        ("S1", 3, 3, 1),
        ("S1", 5, 3, 1),
        ("S2", 5, 4, 1),
        ("S2", 3, 2, 0),
        ("S2", 3, 2, 1),
        ("S1", 5, 1, 0),
    ],
)
def test_schmidt_matches_census_sweep(kind, q, m, i):
    spec = FamilySpec(kind, q, m, i)
    assert schmidt_for_family(spec).entries == census_inner_distribution(spec).entries


def test_schmidt_singleton_edge():
    # |Y| = 1 forces every nonzero-rank entry to vanish: S1 with i at the
    # degenerate low end l = n+1 models a singleton set
    dist = schmidt_inner_distribution("odd", 2, 3, 1, 3)
    assert dist.entries == {(0, 1): 1}


def test_proper_code_parameters_match_families():
    # S1 is a proper (2m-2i-1)-code, S2 and the A families proper (2m-2i-2)-codes
    for kind, q, m, i in [("S1", 3, 3, 1), ("S2", 3, 4, 2), ("S2", 3, 4, 1)]:
        dist = census_inner_distribution(FamilySpec(kind, q, m, i))
        d = 2 * m - 2 * i - (1 if kind == "S1" else 2)
        assert is_proper_d_code(dist, d), (kind, q, m, i)
    for kind, q, m, i in [("A1", 2, 5, 2), ("A2", 2, 6, 2), ("A2", 2, 6, 3), ("A1", 4, 3, 1)]:
        dist = census_inner_distribution(FamilySpec(kind, q, m, i))
        assert is_proper_d_code(dist, 2 * m - 2 * i - 2), (kind, q, m, i)


def test_census_rank_floor():
    for kind, q, m, i in [("Q1", 3, 3, 1), ("Q2", 3, 4, 2), ("Q1", 2, 5, 2), ("Q2", 2, 6, 3)]:
        dist = census_inner_distribution(FamilySpec(kind, q, m, i))
        assert is_d_code(dist, 2 * m - 2 * i - 2)


def test_correspondence_odd_q():
    # inner distribution of Q_j equals that of S_j entrywise (two independent
    # code paths: quadratic classification vs bilinear-parametrized census)
    for (qk, sk, q, m, i) in [("Q1", "S1", 3, 3, 1), ("Q2", "S2", 3, 4, 1), ("Q2", "S2", 3, 4, 2), ("Q1", "S1", 5, 3, 1)]:
        qd = census_inner_distribution(FamilySpec(qk, q, m, i))
        sd = census_inner_distribution(FamilySpec(sk, q, m, i))
        assert qd.entries == sd.entries


def test_correspondence_even_q():
    # d_{2i,0} + d_{2i+1,1} + d_{2i,2} = b_{2i}
    for (qk, ak, q, m, i) in [("Q1", "A1", 2, 5, 2), ("Q2", "A2", 2, 6, 2), ("Q2", "A2", 2, 6, 3), ("Q1", "A1", 4, 3, 1)]:
        qd = census_inner_distribution(FamilySpec(qk, q, m, i))
        ad = census_inner_distribution(FamilySpec(ak, q, m, i))
        for rank in range(0, m + 1, 2):
            lhs = (
                qd.entries.get((rank, 0), 0)
                + qd.entries.get((rank + 1, 1), 0)
                + qd.entries.get((rank, 2), 0)
            )
            assert lhs == ad.entries.get(rank, 0), (q, m, i, rank)


def test_subspace_representatives_count():
    # Gaussian binomial [3 choose 2]_3 = 13, [4 choose 2]_3 = 130
    assert sum(1 for _ in subspace_representatives(3, 3, 2)) == 13
    assert sum(1 for _ in subspace_representatives(3, 4, 2)) == 130
    reps = [tuple(map(tuple, r)) for r in subspace_representatives(2, 4, 1)]
    assert len(reps) == len(set(reps)) == 15


def test_bilinear_gram_halved_is_polarization():
    # member-wise: the gram of the halved bilinear parametrization equals
    # polarize(Q) for the same lambda tuple (odd q)
    from bchforms.forms import polarize

    fld = field_for(3, 3)
    for lam in (1, fld.alpha, 7):
        form = next(f for f in enumerate_family(FamilySpec("Q1", 3, 3, 1)) if f.lambdas == (lam,))
        half = fld.base.inv_el(fld.base.add_el(1, 1))
        g1 = schemes._bilinear_gram(fld, 1, (fld.mul(half, lam),)).entries
        g2 = polarize(form).entries
        assert np.array_equal(g1, g2), lam


def _scalar_bilinear_gram(field, i, lambdas):
    """Reference for schemes._bilinear_gram: the images L(e_a) by scalar
    Frobenius powers, then Tr(L(e_a) e_b) entry by entry."""
    m = field.m
    basis = [field.q ** a for a in range(m)]  # e_a has index q^a
    images = []
    for x in basis:
        acc = 0
        for slot, lam in zip(family_slots(m, i), lambdas):
            if lam == 0:
                continue
            if slot.half:
                acc = field.add(acc, field.mul(lam, power(field, x, field.q ** (m // 2))))
            else:
                acc = field.add(acc, field.mul(lam, power(field, x, field.q ** slot.j)))
                back = field.q ** (m - slot.j)
                acc = field.add(acc, field.mul(power(field, lam, back), power(field, x, back)))
        images.append(acc)
    tr = np.zeros(field.size, dtype=np.int64)
    tr[field.exp_index] = field.trace_vec
    gram = np.zeros((m, m), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            gram[a, b] = tr[field.mul(images[a], basis[b])]
    return GramMatrix(entries=gram, field_q=field.base)


def test_bilinear_gram_matches_scalar_route():
    # every member of the S/A families that the verify suites and the
    # acceptance tests census, odd m and even m (half slot) both
    specs = {FamilySpec(*f) for f in verify.SCHMIDT_FAMILIES}
    specs |= {FamilySpec(k, q, m, i) for _, k, q, m, i in verify.CORRESPONDENCE_ODD + verify.CORRESPONDENCE_EVEN}
    specs |= {FamilySpec(*f) for f in [("S1", 3, 3, 1), ("S2", 3, 4, 2), ("A1", 2, 5, 2), ("A2", 2, 6, 3)]}
    assert {s.m % 2 for s in specs} == {0, 1} and {s.kind[0] for s in specs} == {"S", "A"}
    members = 0
    for spec in specs:
        fld = field_for(spec.q, spec.m)
        for lams, gram in zip(family_lambdas(spec), enumerate_family(spec)):
            ref = _scalar_bilinear_gram(fld, spec.i, lams)
            assert gram.entries.dtype == ref.entries.dtype
            assert gram.entries.tobytes() == ref.entries.tobytes(), (spec, lams)
            members += 1
    assert members == sum(s.size for s in specs) == 1531


def test_family_additive_closure_sampled():
    # families are additive: the sum of two member grams is a member gram
    spec = FamilySpec("S1", 3, 3, 1)
    members = [g.entries for g in enumerate_family(spec)]
    keys = {m.tobytes() for m in members}
    F = field_for(3, 3).base
    rng = np.random.default_rng(99)
    for _ in range(30):
        a = members[rng.integers(len(members))]
        b = members[rng.integers(len(members))]
        s = F.add.astype(np.int64)[a, b]
        assert s.tobytes() in keys


def test_design_check_s1_331():
    spec = FamilySpec("S1", 3, 3, 1)
    assert family_design_check(spec, 2)
    assert family_design_check(spec, 0)


def corrupted_families():
    """S1(3,3,1) with one nonzero member dropped, with one member doubled,
    and with one member's Gram made non-symmetric."""
    members = list(enumerate_family(FamilySpec("S1", 3, 3, 1)))
    nonzero = [g for g in members if g.entries.any()]
    dropped = nonzero[:-1] + [g for g in members if not g.entries.any()]
    assert len(dropped) == len(members) - 1
    skew = nonzero[0].entries.copy()
    skew[0, 1] = (skew[0, 1] + 1) % 3
    skewed = [GramMatrix(skew, g.field_q) if g is nonzero[0] else g for g in members]
    return [dropped, members + nonzero[:1], skewed]


def test_design_check_negative_control():
    for corrupted in corrupted_families():
        assert not t_design_check(corrupted, 2, 3, 3)


def scalar_t_design_check(members, t, q, m):
    """Reference for t_design_check: each member's restriction to each
    subspace, entry by entry in scalar GF(q) arithmetic, tallied in a dict."""
    F = small_field(q)
    grams = [g.entries for g in members]
    n_forms_on_u = q ** (t * (t + 1) // 2)
    constant = None
    for rows in subspace_representatives(q, m, t) if t else ():
        tally: dict = {}
        for g in grams:
            key = tuple(
                functools.reduce(F.add_el, (F.mul_el(rows[a][s], F.mul_el(int(g[s, u]), rows[b][u]))
                                            for s in range(m) for u in range(m)), 0)
                for a in range(t) for b in range(t))
            tally[key] = tally.get(key, 0) + 1
        counts = set(tally.values())
        if len(tally) < n_forms_on_u:
            counts.add(0)
        if len(counts) != 1 or (constant is not None and counts != {constant}):
            return False
        constant = counts.pop()
    return True


@pytest.mark.parametrize("members,t,q,m,verdict", [
    # 27 members cannot cover the 3^6 forms on U = GF(3)^3
    *[(("S1", 3, 3, 1), t, 3, 3, t < 3) for t in range(4)],
    (("S1", 5, 3, 1), 2, 5, 3, True),
    (("S2", 3, 4, 1), 2, 3, 4, False),
    *[(k, 2, 3, 3, False) for k in range(3)],
])
def test_design_check_equals_scalar_reference(members, t, q, m, verdict):
    # a kind tuple names a whole family, an int one of the corrupted families
    members = (corrupted_families()[members] if isinstance(members, int)
               else list(enumerate_family(FamilySpec(*members))))
    assert t_design_check(members, t, q, m) == scalar_t_design_check(members, t, q, m) == verdict


def test_member_cap_is_the_smaller_of_budget_and_scan_limit():
    EnumerationBudget().check_members(1 << 20)
    with pytest.raises(BudgetExceeded, match="family scan limit of 1048576"):
        EnumerationBudget().check_members((1 << 20) + 1)
    EnumerationBudget.parse("small").check_members(1 << 16)
    with pytest.raises(BudgetExceeded, match="budget of 65536"):
        EnumerationBudget.parse("small").check_members((1 << 16) + 1)


SMALL = EnumerationBudget.parse("small")


@pytest.mark.parametrize("scan", [
    # GF(9^4) is over the small field cap
    lambda: census_inner_distribution(FamilySpec("S2", 9, 4, 2), SMALL),
    # GF(3^7) fits, 3^14 members do not
    lambda: family_design_check(FamilySpec("S1", 3, 7, 4), 2, SMALL),
    # GF(2^12) fits, 2^18 members do not
    lambda: min_distance_even(code_params(2, 12, 6), SMALL),
    lambda: census_inner_distribution(FamilySpec("A2", 2, 12, 6), SMALL),
    lambda: rank_type_census(FamilySpec("A2", 2, 12, 6), SMALL),
    # default budget: 4^12 = 2^24 members fit the codeword cap, not the scan limit
    lambda: rank_type_census(FamilySpec("Q2", 4, 8, 4)),
    # default budget: GF(2^22) is over the field cap
    lambda: min_distance_even(code_params(2, 22, 10)),
    lambda: enumerate_family(FamilySpec("Q2", 2, 22, 10)),
])
def test_family_scans_refuse_before_the_field(monkeypatch, scan):
    built = []
    monkeypatch.setattr(schemes, "field_for", lambda *a: built.append(a))
    with pytest.raises(BudgetExceeded):
        scan()
    assert built == []


@pytest.mark.parametrize("q", [2, 3])
def test_verify_schemes_counts_each_census_once(q, monkeypatch):
    # the Schmidt list, the correspondences and the dg-bound check share
    # S1(3,3,1), S2(3,4,2) and A1(2,5,2); each family is counted once
    computed = []
    real = verify.census_inner_distribution

    def counting(spec, budget):
        computed.append(spec)
        return real(spec, budget)

    monkeypatch.setattr(verify, "census_inner_distribution", counting)
    checks = verify.verify_schemes(q)
    assert computed and len(computed) == len(set(computed)), computed
    assert all(ok for _, ok, _ in checks), checks
