import itertools
import tracemalloc

import numpy as np
import pytest

from bchforms import forms, schemes
from bchforms.errors import ArityMismatch, EvenCharacteristic, InvalidSubfield, OutOfRange, RankZero
from bchforms.forms import (
    CoefficientForm,
    RankType,
    TraceQuadraticForm,
    all_rank_types,
    bilinear_rank,
    canonical_form,
    classify_quadratic,
    classify_symmetric,
    count_solutions_closed,
    family_size,
    family_slots,
    polarize,
)
from bchforms.gfarith import digits, digitwise, field_for, small_field
from field_reference import frob, power
from bchforms.verify import CORRESPONDENCE_EVEN, CORRESPONDENCE_ODD, FORM_FAMILIES, SCHMIDT_FAMILIES


# families small enough to sweep in unit tests
SMALL_FAMILIES = [(2, 5, 2), (2, 6, 2), (3, 3, 1), (3, 4, 1), (4, 2, 1), (4, 3, 1), (5, 2, 1)]


def coefficient_form(q, m, entries):
    C = np.zeros((m, m), dtype=np.int64)
    for (a, b), v in entries.items():
        C[a, b] = v
    return CoefficientForm(small_field(q), C)


def test_family_slots_and_sizes():
    assert [s.j for s in family_slots(3, 1)] == [2]
    assert [(s.j, s.half) for s in family_slots(6, 2)] == [(3, True)]
    assert [(s.j, s.half) for s in family_slots(6, 3)] == [(3, True), (4, False)]
    for q, m, i in SMALL_FAMILIES:
        n_members = sum(1 for _ in schemes.enumerate_family(schemes.FamilySpec.quadratic(q, m, i)))
        assert n_members == family_size(q, m, i), (q, m, i)


def test_trace_form_arity_and_subfield_checks():
    fld = field_for(2, 6)
    with pytest.raises(ArityMismatch):
        TraceQuadraticForm(fld, 3, (0,))
    # slot lambda_{m/2} must lie in GF(q^(m/2)); alpha does not
    with pytest.raises(InvalidSubfield):
        TraceQuadraticForm(fld, 3, (fld.alpha, 0))


def test_scaling_invariant_sampled():
    # Q(c x) = c^2 Q(x) for c in GF(q)
    for q, m, i in [(3, 3, 1), (4, 3, 1), (5, 2, 1)]:
        fld = field_for(q, m)
        F = fld.base
        for form in list(schemes.enumerate_family(schemes.FamilySpec.quadratic(q, m, i)))[:8]:
            vals = form.values_by_index()
            for c in range(1, q):
                c2 = F.mul_el(c, c)
                for x in range(0, fld.size, 5):
                    cx = fld.mul(c, x)
                    assert vals[cx] == F.mul_el(c2, int(vals[x]))


def test_polarize_zero_and_coefficient_examples():
    z = coefficient_form(3, 3, {})
    assert not polarize(z).entries.any()
    # Q = x1^2 -> gram diag(1,0,0)
    g = polarize(coefficient_form(3, 3, {(0, 0): 1}))
    assert np.array_equal(g.entries, np.diag([1, 0, 0]))


def test_polarize_trace_form_matches_bilinear_formula():
    # B(x,y) = Tr((lam/2) x^(q^2) y + (lam/2)^(q^-2) x^(q^-2) y) on basis pairs
    fld = field_for(3, 3)
    lam = fld.alpha
    form = TraceQuadraticForm(fld, 1, (lam,))
    g = polarize(form).entries
    F = fld.base
    half = F.inv_el(F.add_el(1, 1))
    mu = fld.mul(half, lam)  # GF(q) scalars embed as indices < q
    basis = [3 ** a for a in range(3)]  # e_a has index q^a
    tr = np.zeros(fld.size, dtype=np.int64)
    tr[fld.exp_index] = fld.trace_vec
    for a in range(3):
        for b in range(3):
            lhs = tr[
                fld.add(
                    fld.mul(fld.mul(mu, power(fld, basis[a], fld.q ** 2)), basis[b]),
                    fld.mul(fld.mul(frob(fld, mu), frob(fld, basis[a])), basis[b]),
                )
            ]
            assert g[a, b] == lhs
    # and B(x,x) = Q(x) on the basis
    vals = form.values_by_index()
    for a in range(3):
        assert g[a, a] == vals[basis[a]]


def test_bilinear_rank_examples():
    F3 = small_field(3)
    assert bilinear_rank(forms.GramMatrix(np.zeros((3, 3), dtype=int), F3)) == 0
    assert bilinear_rank(forms.GramMatrix(np.eye(4, dtype=int), F3)) == 4
    A = np.zeros((4, 4), dtype=int)
    A[0, 1], A[1, 0] = 1, 2  # -1 mod 3
    assert bilinear_rank(forms.GramMatrix(A, F3)) == 2


def test_classify_symmetric_examples():
    F3 = small_field(3)
    g = forms.GramMatrix(np.diag([1, 1, 0]).astype(np.int64), F3)
    assert classify_symmetric(g) == RankType(2, 1)
    g = forms.GramMatrix(np.diag([1, 2, 0]).astype(np.int64), F3)
    assert classify_symmetric(g) == RankType(2, -1)
    g = forms.GramMatrix(np.zeros((3, 3), dtype=np.int64), F3)
    assert classify_symmetric(g) == RankType(0, 1)
    with pytest.raises(EvenCharacteristic):
        classify_symmetric(forms.GramMatrix(np.zeros((2, 2), dtype=np.int64), small_field(2)))


def test_classify_symmetric_offdiagonal_pivot():
    # hyperbolic plane [[0,1],[1,0]] over GF(3): rank 2, disc -1 -> type eta(-1) = -1
    F3 = small_field(3)
    A = np.array([[0, 1], [1, 0]], dtype=np.int64)
    assert classify_symmetric(forms.GramMatrix(A, F3)) == RankType(2, -1)


def test_classify_quadratic_even_examples():
    # x1 x2: rank 2 type 0
    f = coefficient_form(2, 3, {(0, 1): 1})
    assert classify_quadratic(f) == RankType(2, 0)
    # x1 x2 + x1^2 + x2^2 over GF(2) (Tr(1)=1): rank 2 type 2
    f = coefficient_form(2, 3, {(0, 1): 1, (0, 0): 1, (1, 1): 1})
    assert classify_quadratic(f) == RankType(2, 2)
    # x1 x2 + x3^2: rank 3 type 1
    f = coefficient_form(2, 3, {(0, 1): 1, (2, 2): 1})
    assert classify_quadratic(f) == RankType(3, 1)
    # zero form
    assert classify_quadratic(coefficient_form(2, 3, {})) == RankType(0, 0)
    # q=4: x1 x2 + x1^2 + t x2^2 with Tr^4_2(t)=1: rank 2 type 2
    f = coefficient_form(4, 2, {(0, 1): 1, (0, 0): 1, (1, 1): 2})
    assert classify_quadratic(f) == RankType(2, 2)


def test_count_solutions_closed_examples():
    assert count_solutions_closed(3, RankType(1, 1), 1, 2) == 6
    for h in range(4):
        assert count_solutions_closed(4, RankType(3, 1), h, 4) == 4 ** 3
    assert count_solutions_closed(2, RankType(2, 0), 0, 2) == 3
    with pytest.raises(RankZero):
        count_solutions_closed(3, RankType(0, 1), 0, 2)


def test_count_solutions_every_rank_type():
    # canonical forms reach every rank/type, the families only some
    for q, m in [(2, 4), (3, 4), (4, 3), (5, 3), (9, 2)]:
        for rt in all_rank_types(q, m):
            hist = np.bincount(canonical_form(q, m, rt).values_by_index(), minlength=q)
            for h in range(q):
                assert count_solutions_closed(q, rt, h, m) == hist[h], (q, m, rt, h)


def test_form_construction_errors():
    with pytest.raises(OutOfRange):
        canonical_form(3, 2, RankType(3, 1))
    with pytest.raises(OutOfRange):
        CoefficientForm(small_field(3), np.zeros((2, 3), dtype=np.int64))


def _rank_by_definition(form):
    """m - dim Rad Q with Rad Q = Q^{-1}(0) n Rad B_Q, straight from the definitions."""
    F = form.field_q
    q, m = F.q, form.m
    B = polarize(form)
    rad = forms.radical_basis(B)
    count = 0
    from itertools import product as iproduct

    for coeffs in iproduct(range(q), repeat=len(rad)):
        v = [0] * m
        for c, bv in zip(coeffs, rad):
            for t in range(m):
                v[t] = F.add_el(v[t], F.mul_el(c, bv[t]))
        if F.p != 2:
            # odd q: Rad Q = Rad B automatically
            count += 1
        elif form.values_by_index()[sum(c * q ** t for t, c in enumerate(v))] == 0:
            count += 1
    dim = 0
    while q ** dim < count:
        dim += 1
    assert q ** dim == count, "radical zero set is not a subspace-sized set"
    return m - dim


def test_classification_against_exhaustive_counts():
    """For whole small families: rank by definition, and closed-form solution
    counts vs exhaustive zero counts for every h. Validates classification and
    the count formulas together."""
    for q, m, i in SMALL_FAMILIES:
        for form in schemes.enumerate_family(schemes.FamilySpec.quadratic(q, m, i)):
            rt = classify_quadratic(form)
            assert rt.rank == _rank_by_definition(form), (q, m, i, form.lambdas)
            vals = form.values_by_index()
            hist = np.bincount(vals, minlength=q)
            if rt.rank == 0:
                assert hist[0] == q ** m
                continue
            for h in range(q):
                assert count_solutions_closed(q, rt, h, m) == hist[h], (q, m, i, h)


def test_classification_basis_invariance():
    rng = np.random.default_rng(20240817)
    cases = []
    for q, m, i in [(3, 3, 1), (2, 5, 2), (4, 2, 1), (5, 2, 1)]:
        members = list(schemes.enumerate_family(schemes.FamilySpec.quadratic(q, m, i)))
        cases.extend((q, m, f) for f in members[1 : len(members) : max(1, len(members) // 4)])
    for q, m, form in cases:
        F = small_field(q)
        rt = classify_quadratic(form)
        # transport Q to a coefficient form and hit it with random congruences
        C = np.zeros((m, m), dtype=np.int64)
        gram = polarize(form).entries
        if F.p != 2:
            C = gram.copy()
        else:
            vals = form.values_by_index()
            for a in range(m):
                C[a, a] = vals[q ** a]
            for a in range(m):
                for b in range(a + 1, m):
                    C[a, b] = gram[a, b]
        for _ in range(100):
            while True:
                D = rng.integers(0, q, size=(m, m))
                if bilinear_rank(forms.GramMatrix(D, F)) == m:
                    break
            M = np.zeros((m, m), dtype=np.int64)
            for a in range(m):
                for b in range(m):
                    acc = 0
                    for s in range(m):
                        for t in range(m):
                            acc = F.add_el(
                                acc,
                                F.mul_el(int(D[s, a]), F.mul_el(int(C[s, t]), int(D[t, b]))),
                            )
                    M[a, b] = acc
            U = np.zeros((m, m), dtype=np.int64)
            for a in range(m):
                U[a, a] = M[a, a]
                for b in range(a + 1, m):
                    U[a, b] = F.add_el(int(M[a, b]), int(M[b, a]))
            assert classify_quadratic(CoefficientForm(F, U)) == rt


def _matvec(F, B, v):
    out = []
    for row in B:
        acc = 0
        for b, x in zip(row, v):
            acc = F.add_el(acc, F.mul_el(int(b), int(x)))
        out.append(acc)
    return out


def _span_size(F, vectors):
    """|{sum c_k v_k}| by enumerating every coefficient tuple."""
    seen = set()
    for coeffs in itertools.product(range(F.q), repeat=len(vectors)):
        acc = [0] * (len(vectors[0]) if vectors else 0)
        for c, vec in zip(coeffs, vectors):
            acc = [F.add_el(a, F.mul_el(c, int(x))) for a, x in zip(acc, vec)]
        seen.add(tuple(acc))
    return len(seen)


def _check_rank_and_radical(F, B):
    m = B.shape[0]
    gram = forms.GramMatrix(B, F)
    rank = bilinear_rank(gram)
    rad = forms.radical_basis(gram)
    assert rank + len(rad) == m
    for v in rad:
        assert _matvec(F, B, v) == [0] * m
    # independent: the q^k combinations are pairwise distinct
    assert _span_size(F, rad) == F.q ** len(rad)


def test_row_reduction_rank_plus_radical():
    for q, m, i in FORM_FAMILIES:
        F = small_field(q)
        for form in schemes.enumerate_family(schemes.FamilySpec.quadratic(q, m, i)):
            _check_rank_and_radical(F, polarize(form).entries)
    rng = np.random.default_rng(20261018)
    for q in (2, 3, 4, 5):
        F = small_field(q)
        mul, add = F.mul.astype(np.int64), F.add.astype(np.int64)
        for _ in range(40):
            rows, cols, inner = (int(v) for v in rng.integers(1, 5, size=3))
            L = rng.integers(0, q, size=(rows, inner))
            R = rng.integers(0, q, size=(inner, cols))
            B = np.zeros((rows, cols), dtype=np.int64)
            for k in range(inner):  # rank <= inner, so radicals occur
                B = add[B, mul[L[:, k][:, None], R[k][None, :]]]
            # rank from its definition: the row space has q^rank elements
            rank = bilinear_rank(forms.GramMatrix(B, F))
            assert q ** rank == _span_size(F, list(B))
            assert rank == bilinear_rank(forms.GramMatrix(B.T, F))
            if rows == cols:
                _check_rank_and_radical(F, B)


@pytest.mark.parametrize("q,m,i", [(2, 6, 3), (3, 4, 2), (4, 3, 1)])
def test_family_enumerators_agree(q, m, i):
    # family_lambdas is the one member source: distinct tuples in
    # lexicographic order, carried by the Q members, Gram'd by the S/A ones
    fld = field_for(q, m)
    qspec = schemes.FamilySpec.quadratic(q, m, i)
    lams = list(schemes.family_lambdas(qspec))
    assert len(lams) == family_size(q, m, i)
    assert lams == sorted(set(lams))
    assert [form.lambdas for form in schemes.enumerate_family(qspec)] == lams
    kind = ("S" if q % 2 else "A") + qspec.kind[1]
    grams = [g.entries for g in schemes.enumerate_family(schemes.FamilySpec(kind, q, m, i))]
    assert len(grams) == len(lams)
    for g, t in zip(grams, lams):
        assert np.array_equal(g, schemes._bilinear_gram(fld, i, t).entries)


# ---------------------------------------------------------------------------
# scalar references: the entry-by-entry routines the table-driven code
# replaced, kept to check it against
# ---------------------------------------------------------------------------


def _row_reduce_ref(M, F):
    A = [list(map(int, row)) for row in M]
    cols = len(A[0]) if A else 0
    pivots = []
    for c in range(cols):
        top = len(pivots)
        piv = next((r for r in range(top, len(A)) if A[r][c] != 0), None)
        if piv is None:
            continue
        A[top], A[piv] = A[piv], A[top]
        inv = F.inv_el(A[top][c])
        A[top] = [F.mul_el(inv, v) for v in A[top]]
        for r in range(len(A)):
            if r != top and A[r][c] != 0:
                f = F.neg_el(A[r][c])
                A[r] = [F.add_el(A[r][t], F.mul_el(f, A[top][t])) for t in range(cols)]
        pivots.append(c)
    return A, pivots


def _classify_symmetric_ref(entries, F):
    m = len(entries)
    A = [list(map(int, row)) for row in entries]
    remaining = list(range(m))
    diag = []
    while remaining:
        piv = next((k for k in remaining if A[k][k] != 0), None)
        if piv is None:
            pair = next(((k, l) for k in remaining for l in remaining if A[k][l] != 0), None)
            if pair is None:
                break
            k, l = pair
            for t in range(m):
                A[k][t] = F.add_el(A[k][t], A[l][t])
            for t in range(m):
                A[t][k] = F.add_el(A[t][k], A[t][l])
            piv = k
        d = A[piv][piv]
        diag.append(d)
        dinv = F.inv_el(d)
        for r in remaining:
            if r == piv or A[r][piv] == 0:
                continue
            f = F.neg_el(F.mul_el(A[r][piv], dinv))
            for t in range(m):
                A[r][t] = F.add_el(A[r][t], F.mul_el(f, A[piv][t]))
            for t in range(m):
                A[t][r] = F.add_el(A[t][r], F.mul_el(f, A[t][piv]))
        remaining.remove(piv)
    if not diag:
        return RankType(0, 1)
    prod = 1
    for d in diag:
        prod = F.mul_el(prod, d)
    return RankType(len(diag), F.quadratic_character(prod))


def _polarize_ref(form):
    """The point-gather polarization that classification used before it read
    the coefficient matrix: Q at e_a (index q^a), e_a + e_b (q^a + q^b) and
    2 e_a ((1+1) q^a), gathered from the values at all q^m points."""
    F = form.field_q
    vals = form.values_by_index()
    basis = F.q ** np.arange(form.m, dtype=np.int64)
    both = basis[:, None] + basis[None, :]
    np.fill_diagonal(both, F.add_el(1, 1) * basis)
    minus = F.neg[vals[basis]]
    gram = F.add[F.add[vals[both], minus[:, None]], minus[None, :]]
    if F.p != 2:
        gram = F.mul[gram, F.half(1)]
    return gram.astype(np.int64)


def _classify_quadratic_ref(form):
    """Rank and type from the q^m values: the radical check reads Q off the
    values, and the even-q type 0 or 2 is the number of zeros of Q."""
    F, q, m = form.field_q, form.q, form.m
    gram = _polarize_ref(form)
    if F.p != 2:
        return _classify_symmetric_ref(gram, F)
    A, pivots = _row_reduce_ref(gram, F)
    rb = len(pivots)
    vals = form.values_by_index()
    for fc in (c for c in range(m) if c not in pivots):
        v = [0] * m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg_el(A[r][fc])
        if vals[sum(c * q ** t for t, c in enumerate(v))]:
            return RankType(rb + 1, 1)
    if rb == 0:
        return RankType(0, 0)
    zeros = int(np.count_nonzero(vals == 0))
    bump = (q - 1) * q ** (m - rb // 2 - 1)
    return {q ** (m - 1) + bump: RankType(rb, 0), q ** (m - 1) - bump: RankType(rb, 2)}[zeros]


def _values_by_index_ref(form):
    F, q, m = form.field_q, form.q, form.m
    digs = digits(np.arange(q ** m), q, m)
    acc = np.zeros(q ** m, dtype=np.int64)
    mul, add = F.mul.astype(np.int64), F.add.astype(np.int64)
    for a in range(m):
        for b in range(m):
            c = int(form.coeffs[a, b])
            if c:
                acc = add[acc, mul[c, mul[digs[:, a], digs[:, b]]]]
    return acc


REFERENCE_QS = (2, 3, 4, 5, 7, 8, 9)


def test_row_reduce_matches_reference():
    rng = np.random.default_rng(20261018)
    for q in REFERENCE_QS:
        F = small_field(q)
        for _ in range(60):
            rows, cols = (int(v) for v in rng.integers(0, 8, size=2))
            M = rng.integers(0, q, size=(rows, cols))
            if rows and cols and rng.random() < 0.5:  # low rank: zero columns and free rows
                M[:, rng.random(cols) < 0.4] = 0
                M[rng.integers(rows)] = M[rng.integers(rows)]
            assert forms._row_reduce(M, F) == _row_reduce_ref(M, F), (q, M.tolist())


def _reference_forms():
    """Every canonical form and random coefficient forms for each q of
    REFERENCE_QS (the trace families are in _reference_families)."""
    rng = np.random.default_rng(7)
    for q in REFERENCE_QS:
        for m in (1, 2, 3, 4, 5):
            for rt in all_rank_types(q, m):
                yield canonical_form(q, m, rt)
            for _ in range(10):
                C = np.triu(rng.integers(0, q, size=(m, m)))
                yield CoefficientForm(small_field(q), C if q % 2 == 0 else C + np.triu(C, 1).T)


def _assert_matches_point_reference(form):
    gram = polarize(form).entries
    ref = _polarize_ref(form)
    assert gram.dtype == ref.dtype and gram.tobytes() == ref.tobytes(), form
    assert classify_quadratic(form) == _classify_quadratic_ref(form), form


def test_polarize_and_values_match_reference():
    for form in _reference_forms():
        if isinstance(form, CoefficientForm):
            ref = _values_by_index_ref(form)
            vals = form.values_by_index()
            assert vals.dtype == ref.dtype and vals.tobytes() == ref.tobytes()
        _assert_matches_point_reference(form)


def _reference_families():
    """Every family that verify.py and tests/test_acceptance.py census."""
    specs = {(k, q, m, i) for k, q, m, i in SCHMIDT_FAMILIES}
    for qk, other, q, m, i in CORRESPONDENCE_ODD + CORRESPONDENCE_EVEN:
        specs |= {(qk, q, m, i), (other, q, m, i)}
    specs |= {("Q" + str(2 - m % 2), q, m, i) for q, m, i in FORM_FAMILIES}
    specs |= {("S1", 3, 3, 1), ("S2", 3, 4, 2), ("Q1", 3, 3, 1), ("Q2", 3, 4, 2),
              ("Q1", 2, 5, 2), ("Q2", 2, 6, 3), ("A1", 2, 5, 2), ("A2", 2, 6, 3)}
    # the even-q min-distance families of the benchmark's census workload
    specs |= {("Q2", 2, 8, 4), ("Q2", 4, 4, 2), ("Q1", 2, 9, 4)}
    return sorted(specs)


@pytest.mark.parametrize("q,m,i", [(2, 19, 9), (4, 9, 4), (3, 11, 5), (5, 7, 3), (2, 14, 6),
                                   (9, 4, 2), (8, 3, 1), (16, 3, 1), (4, 6, 3), (2, 10, 5)])
def test_large_trace_forms_match_point_reference(q, m, i):
    # seeded members at large m and large q, the half slot included
    fld = field_for(q, m)
    domains = forms.family_domains(fld, i)
    rng = np.random.default_rng(q * 1000 + m * 10 + i)
    for _ in range(3 if q ** m > 1 << 16 else 12):
        lams = tuple(int(d[rng.integers(len(d))]) for d in domains)
        _assert_matches_point_reference(TraceQuadraticForm(fld, i, lams))


def test_half_slot_membership():
    # the half slot admits exactly the fixed points of x -> x^(q^(m/2)), and
    # the family domain lists them
    for q, m, i in [(2, 6, 3), (4, 4, 2), (3, 4, 1), (9, 2, 1)]:
        fld = field_for(q, m)
        half = {x for x in range(fld.size) if power(fld, x, q ** (m // 2)) == x}
        assert forms.family_domains(fld, i)[0] == sorted(half)
        for lam in range(fld.size):
            if lam in half:
                TraceQuadraticForm(fld, i, (lam,) + (0,) * (len(family_slots(m, i)) - 1))
            else:
                with pytest.raises(InvalidSubfield):
                    TraceQuadraticForm(fld, i, (lam,) + (0,) * (len(family_slots(m, i)) - 1))


@pytest.mark.parametrize("kind,q,m,i", _reference_families())
def test_classification_matches_reference(kind, q, m, i):
    for member in schemes.enumerate_family(schemes.FamilySpec(kind, q, m, i)):
        if kind[0] == "Q":
            _assert_matches_point_reference(member)
        elif kind[0] == "S":
            assert classify_symmetric(member) == _classify_symmetric_ref(member.entries, member.field_q)
        else:
            assert bilinear_rank(member) == len(_row_reduce_ref(member.entries, member.field_q)[1])


def test_gram_entries_are_a_read_only_copy():
    F3 = small_field(3)
    raw = np.diag([1, 1, 0]).astype(np.int64)
    g = forms.GramMatrix(raw, F3)
    assert bilinear_rank(g) == 2
    raw[2, 2] = 1  # the caller's array is not the Gram's
    assert g.entries[2, 2] == 0 and bilinear_rank(g) == 2
    with pytest.raises(ValueError):
        g.entries[2, 2] = 1


@pytest.mark.parametrize("q,m", [(2, 5), (4, 3)])
def test_even_q_classification_eliminates_once(monkeypatch, q, m):
    # one elimination serves both the rank and the radical; bilinear_rank
    # still runs once per member, which the benchmark's span counts assume
    calls = {"_row_reduce": 0, "bilinear_rank": 0}
    for name in calls:
        def counted(*args, _orig=getattr(forms, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(forms, name, counted)
    for rt in all_rank_types(q, m):
        calls.update(_row_reduce=0, bilinear_rank=0)
        assert classify_quadratic(canonical_form(q, m, rt)) == rt
        assert calls == {"_row_reduce": 1, "bilinear_rank": 1}, rt


def test_coefficient_values_peak_memory():
    # GF(2^20): one uint8 digit column at a time, not a q^m x m int64 matrix
    tracemalloc.start()
    try:
        vals = canonical_form(2, 20, RankType(2, 0)).values_by_index()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak
    x = np.arange(1 << 20, dtype=np.int64)
    assert vals.dtype == np.int64 and vals.tobytes() == (x & (x >> 1) & 1).tobytes()
