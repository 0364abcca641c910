"""Families of forms attached to the BCH decomposition and their inner
distributions in the Sym/Alt/Qua association schemes.

The census route classifies every family member through the forms module;
the closed-form route evaluates the published inner-distribution formulas
for codes that are simultaneously designs.  Both are exposed so they can
be played against each other.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .errors import (
    BudgetExceeded,
    CountMismatch,
    NegativeEntry,
    NonIntegralResult,
    OutOfRange,
    ParityMismatch,
)
from .forms import (
    GramMatrix,
    TraceQuadraticForm,
    bilinear_rank,
    classify_quadratic,
    classify_symmetric,
    family_domains,
    family_size,
    family_slots,
)
from .gfarith import FieldContext, eta_minus_one, field_for, prime_power, small_field

FAMILY_KINDS = ("Q1", "Q2", "S1", "S2", "A1", "A2")
DEFAULT_MAX_CODEWORDS = 1 << 24
DEFAULT_MAX_FIELD = 1 << 20
# family scans classify members one at a time, so no budget admits more
MAX_FAMILY_MEMBERS = 1 << 20


@dataclass(frozen=True)
class EnumerationBudget:
    max_codewords: int = DEFAULT_MAX_CODEWORDS
    max_field_size: int = DEFAULT_MAX_FIELD

    @staticmethod
    def parse(raw: str | None) -> "EnumerationBudget":
        """'small', 'default' (or empty), or a positive integer codeword cap."""
        raw = (raw or "").strip().lower()
        if not raw or raw == "default":
            return DEFAULT_BUDGET
        if raw == "small":
            return EnumerationBudget(max_codewords=1 << 16, max_field_size=1 << 12)
        if not raw.isdecimal() or int(raw) < 1:
            raise OutOfRange(f"budget {raw!r} is not 'small', 'default' or a positive integer")
        return EnumerationBudget(max_codewords=int(raw))

    @staticmethod
    def from_env() -> "EnumerationBudget":
        """BCHFORMS_BUDGET, read by parse: a setting of the CLI, which is
        the only caller; library scans take their budget as an argument."""
        return EnumerationBudget.parse(os.environ.get("BCHFORMS_BUDGET"))

    def check_codewords(self, count: int) -> None:
        if count > self.max_codewords:
            raise BudgetExceeded(f"{count} codewords exceed budget {self.max_codewords}")

    def check_members(self, count: int) -> None:
        """A family scan may hold min(codeword cap, MAX_FAMILY_MEMBERS) members."""
        cap = min(self.max_codewords, MAX_FAMILY_MEMBERS)
        if count > cap:
            name = "budget" if cap == self.max_codewords else "family scan limit"
            raise BudgetExceeded(f"family of {count} members exceeds the {name} of {cap}")

    def check_field(self, size: int) -> None:
        if size > self.max_field_size:
            raise BudgetExceeded(f"field size {size} exceeds budget {self.max_field_size}")


DEFAULT_BUDGET = EnumerationBudget()


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    q: int
    m: int
    i: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise OutOfRange(f"unknown family kind {self.kind}")
        prime_power(self.q)
        family_slots(self.m, self.i)
        want_odd = self.kind.endswith("1")
        if want_odd != (self.m % 2 == 1):
            raise ParityMismatch(f"{self.kind} needs m {'odd' if want_odd else 'even'}")
        if self.kind.startswith("S") and self.q % 2 == 0:
            raise ParityMismatch("S families are defined for odd q")
        if self.kind.startswith("A") and self.q % 2 == 1:
            raise ParityMismatch("A families are defined for even q")

    @staticmethod
    def quadratic(q: int, m: int, i: int) -> "FamilySpec":
        """Q1(i) for odd m, Q2(i) for even m: the coset representatives of the code (q, m, i)."""
        return FamilySpec("Q1" if m % 2 else "Q2", q, m, i)

    @property
    def scheme_kind(self) -> str:
        return {"Q": "Qua", "S": "Sym", "A": "Alt"}[self.kind[0]]

    @property
    def size(self) -> int:
        return family_size(self.q, self.m, self.i)


@dataclass
class InnerDistribution:
    """Census of a family by relation class.

    Sym/Qua entries are keyed by (rank, type); Alt entries by the even rank
    alone.  Only nonzero entries are stored, as exact integers.
    """

    entries: dict
    scheme_kind: str
    m: int

    def total(self) -> int:
        return sum(self.entries.values())

    @staticmethod
    def _rank(key) -> int:
        return key if isinstance(key, int) else key[0]


def _bilinear_gram(field: FieldContext, i: int, lambdas: tuple[int, ...]) -> GramMatrix:
    """Gram matrix of Tr((sum_j lam_j x^(q^j) + lam_j^(q^-j) x^(q^-j)) y)
    on the polynomial basis (the S/A family parametrization).  For odd q,
    the lambdas halved give B_Q of the quadratic member with those lambdas.

    The trace is linear, so each term lam' x^e contributes
    Tr(lam' e_a^e e_b) = trace_vec[log lam' + e log e_a + log e_b] to
    entry (a, b); the half slot has the one term lam x^(q^(m/2))."""
    m, n, q = field.m, field.n, field.q
    F = field.base
    ell = field.log_index[q ** np.arange(m)]  # logs of the basis e_a = q^a
    gram = np.zeros((m, m), dtype=np.int64)
    for slot, lam in zip(family_slots(m, i), lambdas):
        if lam == 0:
            continue
        log_lam = int(field.log_index[lam])
        if slot.half:
            terms = [(log_lam, q ** (m // 2))]
        else:
            terms = [(log_lam, q ** slot.j), (log_lam * q ** (m - slot.j), q ** (m - slot.j))]
        for log_coef, e in terms:
            gram = F.add[gram, field.trace_vec[(log_coef + ell[:, None] * (e % n) + ell[None, :]) % n]]
    return GramMatrix(entries=gram, field_q=F)


def family_lambdas(spec: FamilySpec, budget: EnumerationBudget = DEFAULT_BUDGET):
    """The lambda tuple of every member of the family exactly once, in
    lexicographic element order: the one member source of every family scan.

    The budget is applied at call time, before the field is built: GF(q^m)
    against the field cap, then spec.size against the member cap.
    """
    budget.check_field(spec.q ** spec.m)
    budget.check_members(spec.size)
    return product(*family_domains(field_for(spec.q, spec.m), spec.i))


def enumerate_family(spec: FamilySpec, budget: EnumerationBudget = DEFAULT_BUDGET):
    """The members of family_lambdas(spec, budget) as forms: Q kinds give
    TraceQuadraticForm, S/A kinds GramMatrix from the bilinear-form
    parametrization (independent of the polarization code path, so
    censuses of Q against S/A are a real cross-check)."""
    lambdas = family_lambdas(spec, budget)
    field = field_for(spec.q, spec.m)
    member = TraceQuadraticForm if spec.kind.startswith("Q") else _bilinear_gram
    return (member(field, spec.i, lams) for lams in lambdas)


def _tally(spec: FamilySpec, members) -> InnerDistribution:
    """Inner distribution of the members of spec: Q forms are keyed by
    classify_quadratic, S Grams by classify_symmetric (both (rank, type)),
    A Grams by bilinear_rank.  Every member of the family must be seen."""
    classify = {"Q": classify_quadratic, "S": classify_symmetric, "A": bilinear_rank}[spec.kind[0]]
    entries: dict = {}
    for member in members:
        rt = classify(member)
        key = rt if isinstance(rt, int) else (rt.rank, rt.type)
        entries[key] = entries.get(key, 0) + 1
    dist = InnerDistribution(entries=entries, scheme_kind=spec.scheme_kind, m=spec.m)
    if dist.total() != spec.size:
        raise CountMismatch(f"census counted {dist.total()} members, expected {spec.size}")
    return dist


def census_inner_distribution(spec: FamilySpec, budget: EnumerationBudget = DEFAULT_BUDGET) -> InnerDistribution:
    """Exact inner distribution by classifying every member; the family
    must fit the budget of enumerate_family."""
    return _tally(spec, enumerate_family(spec, budget))


# ---------------------------------------------------------------------------
# closed-form inner distributions (Schmidt)
# ---------------------------------------------------------------------------


def qsq_binomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient in base q^2 (0 when k > n or k < 0)."""
    if k < 0 or k > n:
        return 0
    out = Fraction(1)
    for t in range(1, k + 1):
        out *= Fraction(q ** (2 * n - 2 * t + 2) - 1, q ** (2 * t) - 1)
    if out.denominator != 1:
        raise NonIntegralResult(f"q^2-binomial ({n},{k}) not integral")
    return int(out)


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise NonIntegralResult(f"{what} = {x} is not an integer")
    if x < 0:
        raise NegativeEntry(f"{what} = {x} is negative")
    return int(x)


def schmidt_inner_distribution(case: str, n: int, l: int, size: int, q: int) -> InnerDistribution:
    """Inner distribution of a code-and-design subset of Sym(*, q), q odd.

    case 'odd':  (2l-1)-code, (2n-2l+3)-design in Sym(2n+1, q)
    case 'even': (2l)-code,   (2n-2l+1)-design in Sym(2n, q)
    case 'odd2': (2l)-code,   (2n-2l+1, eta(-1)^(n-l+1))-design in Sym(2n+1, q)

    All arithmetic is exact; a non-integer or negative entry raises, which
    is the guard against misapplied hypotheses or transcription slips.
    """
    if case not in ("odd", "even", "odd2"):
        raise OutOfRange(f"unknown case {case}")
    em1 = eta_minus_one(q)
    m = 2 * n + 1 if case in ("odd", "odd2") else 2 * n
    Y = Fraction(size)
    entries: dict = {(0, 1): 1}

    def B(a, b):
        return qsq_binomial(a, b, q)

    def put(rank, tau, val: Fraction):
        v = _as_int(val, f"a_({rank},{tau})")
        if v:
            entries[(rank, tau)] = v

    if case == "odd":
        for i in range(1, n + 2):
            s = Fraction(0)
            for j in range(0, i - l + 1):
                s += (-1) ** j * q ** (j * (j - 1)) * B(i, j) * (Y / q ** ((2 * n + 1) * (n + 1 + j - i)) - 1)
            r_odd = 2 * i - 1
            if r_odd <= m:
                for tau in (1, -1):
                    put(r_odd, tau, Fraction(1, 2) * B(n, i - 1) * s)
            r_even = 2 * i
            if r_even <= m:
                for tau in (1, -1):
                    put(r_even, tau, Fraction(1, 2) * (q ** (2 * i) + tau * em1 ** i * q ** i) * B(n, i) * s)
    elif case == "even":
        for i in range(1, n + 1):
            r_odd = 2 * i - 1
            s1 = Fraction(0)
            for j in range(0, i - l):
                s1 += (-1) ** j * q ** (j * (j - 1)) * B(i - 1, j) * Y * q ** (2 * j) / q ** ((2 * n + 1) * (n + 1 + j - i))
            for tau in (1, -1):
                put(r_odd, tau, Fraction(1, 2) * (q ** (2 * i) - 1) * B(n, i) * s1)
            s2 = Fraction(0)
            s3 = Fraction(0)
            for j in range(0, i - l + 1):
                c = (-1) ** j * q ** (j * (j - 1)) * B(i, j)
                s2 += c * (Y * q ** (2 * j) / q ** ((2 * n + 1) * (n + j - i)) - 1)
                s3 += c * (Y / (q ** ((2 * n - 1) * (n + j - i)) * q ** (2 * n)) - 1)
            for tau in (1, -1):
                put(2 * i, tau,
                    Fraction(1, 2) * B(n, i) * s2 + Fraction(tau, 2) * em1 ** i * q ** i * B(n, i) * s3)
    else:  # odd2
        for i in range(1, n + 2):
            s = Fraction(0)
            for j in range(0, i - l + 1):
                s += (-1) ** j * q ** (j * (j - 1)) * B(i, j) * (Y / q ** ((2 * n + 1) * (n + 1 + j - i)) - 1)
            tail = Y / q ** ((2 * n + 1) * (n - l + 1)) - 1
            r_odd = 2 * i - 1
            if r_odd <= m:
                extra = (
                    Fraction(1, 2) * (-1) ** (i - l) * q ** ((i - l) * (i - l - 1)) * B(n, l - 1) * tail
                    * (B(n - l, n - i + 1) * (q ** (n - l + 1) + 1) - B(n - l + 1, n - i + 1))
                )
                for tau in (1, -1):
                    put(r_odd, tau, Fraction(1, 2) * B(n, i - 1) * s + extra)
            r_even = 2 * i
            if r_even <= m:
                extra = (
                    Fraction(1, 2) * (-1) ** (i - l) * q ** ((i - l + 1) * (i - l)) * B(n, l - 1)
                    * B(n - l, n - i) * (q ** (n - l + 1) + 1) * tail
                )
                for tau in (1, -1):
                    put(r_even, tau,
                        Fraction(1, 2) * (q ** (2 * i) + tau * em1 ** i * q ** i) * B(n, i) * s + extra)

    dist = InnerDistribution(entries=entries, scheme_kind="Sym", m=m)
    if dist.total() != size:
        raise NonIntegralResult(
            f"closed-form entries sum to {dist.total()}, expected |Y| = {size}"
        )
    return dist


def schmidt_for_family(spec: FamilySpec) -> InnerDistribution:
    """Closed-form inner distribution of S1(i)/S2(i) via the code/design
    parameters established for these families (odd q)."""
    if spec.kind not in ("S1", "S2", "Q1", "Q2"):
        raise OutOfRange("closed forms exist for the symmetric-side families")
    q, m, i = spec.q, spec.m, spec.i
    if m % 2:
        return schmidt_inner_distribution("odd", (m - 1) // 2, m - i, spec.size, q)
    return schmidt_inner_distribution("even", m // 2, m - i - 1, spec.size, q)


# ---------------------------------------------------------------------------
# codes, designs, bounds
# ---------------------------------------------------------------------------


def dg_bound(n: int, d: int, q: int) -> int:
    """Delsarte-Goethals size bound for 2d-codes of alternating forms on GF(q)^n."""
    prime_power(q)
    if n < 1 or not 0 <= d <= n // 2:
        raise OutOfRange("need n >= 1 and 0 <= d <= floor(n/2)")
    if n % 2:
        return q ** (n * (n + 1) // 2 - n * d)
    return q ** ((n - 1) * (n + 2) // 2 - (n - 1) * d)


def is_d_code(dist: InnerDistribution, d: int) -> bool:
    """No nonzero member of rank 1..d-1."""
    return all(
        v == 0 for k, v in dist.entries.items() if 0 < InnerDistribution._rank(k) < d
    )


def is_proper_d_code(dist: InnerDistribution, d: int) -> bool:
    step = 2 if dist.scheme_kind == "Alt" else 1
    return is_d_code(dist, d) and not is_d_code(dist, d + step)


def subspace_representatives(q: int, m: int, t: int):
    """Row-reduced-echelon bases of all t-dimensional subspaces of GF(q)^m."""
    for pivots in combinations(range(m), t):
        free_pos = [
            (r, c)
            for r in range(t)
            for c in range(m)
            if c > pivots[r] and c not in pivots
        ]
        for assignment in product(range(q), repeat=len(free_pos)):
            rows = [[0] * m for _ in range(t)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free_pos, assignment):
                rows[r][c] = v
            yield rows


def t_design_check(members, t: int, q: int, m: int) -> bool:
    """Combinatorial t-design test in Sym(m, q): the number of members
    extending each symmetric form on each t-dimensional subspace must be one
    constant.  `members` is an iterable of GramMatrix.

    The Grams are stacked once as an N x m x m array.  For each subspace U
    with basis rows R, every member's restriction R G R^T comes from two
    GF(q) products, and the restrictions are tallied by all t^2 entries."""
    if not 0 <= t <= m:
        raise OutOfRange(f"t={t} out of [0, m={m}]")
    if t == 0:
        return True
    F = small_field(q)
    grams = np.array([g.entries for g in members], dtype=np.uint8).reshape(-1, m, m)
    by_row = grams.transpose(1, 0, 2)  # by_row[s, member, u] = G[s, u]
    n_forms_on_u = q ** (t * (t + 1) // 2)
    counts: set[int] = set()  # over every form on every subspace so far
    for rows in subspace_representatives(q, m, t):
        R = np.array(rows, dtype=np.uint8)
        restricted = F.matmul(F.matmul(R, by_row), R.T)  # [a, member, b]
        keys = restricted.transpose(1, 0, 2).reshape(len(grams), t * t)
        tally = np.unique(keys, axis=0, return_counts=True)[1]
        counts.update(tally.tolist())
        if len(tally) < n_forms_on_u:
            counts.add(0)  # some form on U has no extension at all
        if len(counts) != 1:
            return False
    return True


def family_design_check(spec: FamilySpec, t: int, budget: EnumerationBudget = DEFAULT_BUDGET) -> bool:
    """t-design check for a whole S family; the family must fit the budget
    of enumerate_family."""
    return t_design_check(enumerate_family(spec, budget), t, spec.q, spec.m)
