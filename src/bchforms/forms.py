"""Quadratic forms on GF(q)^m, their polarized bilinear forms, and
rank/type classification.

Two concrete form flavours exist:

* ``TraceQuadraticForm`` — Q(x) = Tr(sum_j lambda_j x^(q^j+1)) on a field
  GF(q^m), with the middle slot running over GF(q^(m/2)) when m is even.
  These are the coset representatives of the BCH decomposition.
* ``CoefficientForm`` — Q(x) = x^T C x on the plain vector space GF(q)^m;
  used for canonical forms and as oracle material.

Both expose the same small surface (``coefficient_matrix``,
``values_by_index``, ``field_q``, ``m`` and ``q``), so the classification
code does not care which one it gets.  Rank and type are read off the
coefficient matrix M with Q(y) = y^T M y alone: a trace form gets its M
from one GF(q) contraction of its lambdas with ``TraceTensor``, which
assembles its blocks from the extension's ``gfarith.PolyBasis`` (trace
functional, Frobenius powers, xi), and no classification evaluates Q at
the q^m points.  Odd q is classified by congruence diagonalization of the
Gram (``classify_symmetric``); even q by one symplectic pass over the
alternating Gram, which gives the rank, Q on the radical and the Arf
invariant together (``GramMatrix.symplectic``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ArityMismatch,
    EvenCharacteristic,
    InvalidSubfield,
    NotAlternating,
    OutOfRange,
    RankZero,
)
from .gfarith import (
    FieldContext,
    SmallField,
    _frozen,
    _gfp_matrix,
    eta_minus_one,
    poly_basis,
    small_field,
)


@dataclass(frozen=True)
class SlotSpec:
    """One lambda slot of the trace representation: the term x^(q^j+1)."""

    j: int
    half: bool  # lambda restricted to GF(q^(m/2))


def family_slots(m: int, i: int) -> list[SlotSpec]:
    """Lambda slots of the family Q1(i) (m odd) or Q2(i) (m even);
    OutOfRange for an (m, i) with no family."""
    # i = m - 1 already spans every form; a slot j > m would repeat x^(q^(j-m)+1)
    if m < 1 or family_exponent(m, i) < 0 or i >= m:
        raise OutOfRange(f"no family with i={i} for m={m}")
    if m % 2:
        return [SlotSpec(j, False) for j in range((m + 1) // 2, i + 2)]
    return [SlotSpec(m // 2, True)] + [SlotSpec(j, False) for j in range((m + 2) // 2, i + 2)]


def family_domains(field: FieldContext, i: int) -> list[list[int]]:
    """The admissible lambda values of each slot of Q1(i)/Q2(i), sorted by
    element index; their product, in order, is the family."""
    return [sorted(field.basis.half_field) if s.half else list(range(field.size))
            for s in family_slots(field.m, i)]


def family_exponent(m: int, i: int) -> int:
    """e with |Q1| = |Q2| = q^e: e = m(i-(m-3)/2)."""
    return m * (2 * i - m + 3) // 2


def family_size(q: int, m: int, i: int) -> int:
    """|Q1| = |Q2| = q^family_exponent(m, i)."""
    return q ** family_exponent(m, i)


@dataclass(frozen=True)
class RankType:
    """Rank and congruence type of a form.

    Odd q: type in {+1,-1}, rank-0 forms get type +1 by convention.
    Even q: type in {0,1,2}; type 1 iff the rank is odd, the zero form
    gets type 0.
    """

    rank: int
    type: int

    def __post_init__(self):
        if self.rank == 0 and self.type not in (0, 1):
            raise OutOfRange("rank 0 must carry the conventional type")


def type_sign(q: int, rt: RankType) -> int:
    """The sign eps carried by every closed count for Q of this rank and type:
    tau * eta(-1)^floor(r/2) for odd q; +1 for even q and type 0 or 1, -1 for type 2."""
    if q % 2:
        return rt.type * eta_minus_one(q) ** (rt.rank // 2)
    return -1 if rt.type == 2 else 1


@dataclass
class GramMatrix:
    """``entries`` is a read-only int64 copy, so the cached symplectic pass
    stays valid.  ``q_diagonal`` holds Q(e_a) of an even-q polarization:
    with the alternating B these values determine Q.  Any other Gram leaves
    it None, and the pass then tracks zeros."""

    entries: np.ndarray  # m x m of GF(q) element indices
    field_q: SmallField
    q_diagonal: tuple[int, ...] | None = None

    def __post_init__(self):
        self.entries = np.array(self.entries, dtype=np.int64)
        self.entries.flags.writeable = False

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def symplectic(self) -> tuple[int, bool, int]:
        """(pairs, q_on_radical, arf) of one symplectic pass, O(m^3), over an
        alternating Gram (else EvenCharacteristic or NotAlternating).

        Each step takes e = b_k and f = b_l / B(b_k, b_l) with B(b_k, b_l) != 0,
        and makes every other b_r orthogonal to both as b_r + y_r e + x_r f,
        x_r = B(b_r, e), y_r = B(b_r, f); in characteristic two that is
        B(r, s) += x_r y_s + y_r x_s and Q(b_r) += y_r^2 Q(e) + x_r^2 Q(f) + x_r y_r.
        A b_k with no partner left is dropped.  The dropped vectors span
        Rad B, so rank B = 2 pairs, and Q, additive on Rad B, is nonzero there
        iff it is nonzero on one of them.  arf = sum_k Q(e_k) Q(f_k).
        """
        F = self.field_q
        if F.p != 2:
            raise EvenCharacteristic("the symplectic pass needs even q")
        G = self.entries.tolist()
        if any(G[a][a] for a in range(self.m)) or G != [list(col) for col in zip(*G)]:
            raise NotAlternating("an alternating Gram is symmetric with a zero diagonal")
        add, mul = F.add_rows, F.mul_rows
        Qb = list(self.q_diagonal or [0] * self.m)
        remaining = list(range(self.m))
        arf = pairs = 0
        q_on_radical = False
        while remaining:
            k = remaining.pop()
            l = next((l for l in remaining if G[k][l]), None)
            if l is None:
                q_on_radical = q_on_radical or Qb[k] != 0
                continue
            remaining.remove(l)
            c = F.inv_el(G[k][l])
            qe, qf = Qb[k], mul[mul[c][c]][Qb[l]]
            arf = add[arf][mul[qe][qf]]
            pairs += 1
            X = [row[k] for row in G]
            Y = [mul[c][row[l]] for row in G]
            for r in remaining:
                x, y = X[r], Y[r]
                if not (x or y):
                    continue
                Qb[r] = add[add[Qb[r]][mul[mul[y][y]][qe]]][add[mul[mul[x][x]][qf]][mul[x][y]]]
                row, mx, my = G[r], mul[x], mul[y]
                for s in remaining:
                    row[s] = add[row[s]][add[mx[Y[s]]][my[X[s]]]]
        return pairs, q_on_radical, arf


class TraceTensor:
    """The coefficient matrices M with Q(y) = y^T M y of the members of
    Q1(i)/Q2(i) over one field, each one GF(q) contraction of the lambdas'
    coordinates with a tensor read off the extension's ``PolyBasis``
    (no log, exp or trace table), on the polynomial basis x^a:

    * H_c[a, b] = t_(a+b+c), t_k = Tr(x^k), so Tr(lam u v) = sum lam_c u_a v_b t_(a+b+c);
    * Tr(lam y^(q^j) y) = y^T (sum_c lam_c K_j[c]) y with K_j[c] = (Phi^j)^T H_c,
      Phi the matrix of y -> y^q;
    * for the half slot, Tr(xi z) = Tr_(q^(m/2)/q)(z) for z in GF(q^(m/2)),
      so K_(m/2) is precomposed with multiplication by xi.

    The tensor is stored over GF(p) (``_gfp_matrix``), read-only, so a
    contraction is one integer matmul mod p.
    """

    def __init__(self, F: SmallField, modulus: tuple[int, ...], i: int):
        basis = poly_basis(F, modulus)
        m = basis.m
        self.field_q, self.m = F, m
        self._place = F.p ** np.arange(F.e * m, dtype=np.int64)
        ar = np.arange(m)
        H = basis.trace[ar[:, None, None] + ar[None, :, None] + ar]  # H[c, a, b]
        blocks = [np.zeros((0, m * m), dtype=np.uint8)]  # i = 0 at m = 3 has no slot
        for s in family_slots(m, i):
            K = F.matmul(basis.frobenius_powers[s.j].T, H.transpose(1, 0, 2)).transpose(1, 0, 2)  # K[c, a, b]
            if s.half:
                K = F.matmul(basis.multiplication(basis.xi), K)
            blocks.append(K.reshape(m, m * m))
        self._K = _frozen(_gfp_matrix(F, np.concatenate(blocks)))

    def coefficients(self, lambdas) -> np.ndarray:
        """M of the member with these lambdas: m x m GF(q) indices, int64."""
        F, m = self.field_q, self.m
        coords = np.asarray(lambdas, dtype=np.int64)[:, None] // self._place % F.p  # over GF(p)
        flat = coords.reshape(-1) @ self._K % F.p
        return flat.reshape(m, m, F.e) @ (F.p ** np.arange(F.e))


@lru_cache(maxsize=None)
def trace_tensor(F: SmallField, modulus: tuple[int, ...], i: int) -> TraceTensor:
    """The TraceTensor of Q1(i)/Q2(i) over GF(q)[x]/(modulus), built once."""
    return TraceTensor(F, modulus, i)


class TraceQuadraticForm:
    """Q(x) = Tr(sum lambda_j x^(q^j+1)) with the half-field middle term."""

    def __init__(self, field: FieldContext, i: int, lambdas: tuple[int, ...]):
        slots = family_slots(field.m, i)
        if len(lambdas) != len(slots):
            raise ArityMismatch(f"expected {len(slots)} lambdas, got {len(lambdas)}")
        self.tensor = trace_tensor(field.base, tuple(field.ext_modulus), i)
        for slot, lam in zip(slots, lambdas):
            if not 0 <= lam < field.size:
                raise OutOfRange(f"lambda={lam} is not a field element index in [0, {field.size})")
            if slot.half and lam not in field.basis.half_field:
                raise InvalidSubfield(f"lambda for slot j={slot.j} must lie in GF(q^(m/2))")
        self.field = field
        self.i = i
        self.slots = slots
        self.lambdas = tuple(int(v) for v in lambdas)
        self._values = None

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def m(self) -> int:
        return self.field.m

    @property
    def field_q(self) -> SmallField:
        return self.field.base

    @cached_property
    def coefficient_matrix(self) -> np.ndarray:
        """M with Q(y) = y^T M y on the polynomial basis (TraceTensor)."""
        return self.tensor.coefficients(self.lambdas)

    def value_vec(self) -> np.ndarray:
        """GF(q) values (Q(alpha^t))_{t=0..n-1}."""
        fld = self.field
        n = fld.n
        acc = np.zeros(n, dtype=np.int64)
        t = np.arange(n, dtype=np.int64)
        addq = fld.base.add
        for slot, lam in zip(self.slots, self.lambdas):
            if lam == 0:
                continue
            e = (fld.q ** slot.j + 1) % n
            idx = (int(fld.log_index[lam]) + t * e) % n
            contrib = (fld.half_trace_vec if slot.half else fld.trace_vec)[idx]
            acc = addq[acc, contrib].astype(np.int64)
        return acc

    def values_by_index(self) -> np.ndarray:
        """GF(q) value of Q at every field element index (Q(0) = 0)."""
        if self._values is None:
            vals = np.zeros(self.field.size, dtype=np.int64)
            vals[self.field.exp_index] = self.value_vec()
            self._values = vals
        return self._values

    def __repr__(self) -> str:
        return f"TraceQuadraticForm(q={self.q}, m={self.m}, i={self.i}, lambdas={self.lambdas})"


class CoefficientForm:
    """Q(x) = x^T C x on GF(q)^m; C upper triangular (even q) or symmetric (odd q)."""

    def __init__(self, field_q: SmallField, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.ndim != 2 or coeffs.shape[0] != coeffs.shape[1]:
            raise OutOfRange("coefficient matrix must be square")
        self.field_q = field_q
        self.coeffs = coeffs
        self.m = coeffs.shape[0]
        self._values = None

    @property
    def q(self) -> int:
        return self.field_q.q

    @property
    def coefficient_matrix(self) -> np.ndarray:
        return self.coeffs

    def values_by_index(self) -> np.ndarray:
        """Values over all q^m points, index encoding sum(c_i q^i)."""
        if self._values is None:
            F, m, q = self.field_q, self.m, self.q
            acc = np.zeros(q ** m, dtype=np.uint8)
            for a, b in zip(*np.nonzero(self.coeffs)):
                term = F.mul[self.coeffs[a, b], F.mul[self._digit(a), self._digit(b)]]
                acc = F.add[acc, term]
            self._values = acc.astype(np.int64)
        return self._values

    def _digit(self, a: int) -> np.ndarray:
        """Coordinate a of every point (uint8), one column at a time."""
        q = self.q
        col = np.arange(q, dtype=np.uint8)[:, None]
        return np.broadcast_to(col, (q ** (self.m - a - 1), q, q ** a)).reshape(-1)


def polarize(form) -> GramMatrix:
    """Gram matrix of the bilinear form attached to Q on the fixed basis,
    read off the coefficient matrix M of Q(y) = y^T M y.

    Odd q: B(x,y) = (Q(x+y)-Q(x)-Q(y))/2 = x^T (M + M^T)/2 y, so B(x,x) = Q(x)
    and the Gram matrix coincides with the symmetric coefficient matrix of
    Q.  Even q: B(x,y) = Q(x+y)+Q(x)+Q(y) = x^T (M + M^T) y, which is
    alternating, so the Gram also keeps Q(e_a) = M[a, a].
    """
    F = form.field_q
    M = form.coefficient_matrix
    gram = F.add[M, M.T]
    if F.p != 2:
        return GramMatrix(entries=F.mul[gram, F.half(1)], field_q=F)
    return GramMatrix(entries=gram, field_q=F, q_diagonal=tuple(M.diagonal().tolist()))


def bilinear_rank(M: GramMatrix) -> int:
    """Rank of an alternating Gram over GF(q), q even: twice the pairs of
    its symplectic pass."""
    return 2 * M.symplectic[0]


def classify_symmetric(M: GramMatrix) -> RankType:
    """Rank and type of a symmetric bilinear form, odd q.

    Congruence diagonalization; the type is eta of the product of the
    nonzero diagonal entries, which is the congruence invariant eta(z) of
    the standard form.  The zero form gets (0, +1) by convention.
    """
    F = M.field_q
    if F.p == 2:
        raise EvenCharacteristic("classify_symmetric needs odd q")
    add, mul, neg = F.add_rows, F.mul_rows, F.neg_list
    A = M.entries.tolist()
    remaining = list(range(M.m))
    diag = []
    while remaining:
        piv = next((k for k in remaining if A[k][k]), None)
        if piv is None:
            pair = next(((k, l) for k in remaining for l in remaining if A[k][l]), None)
            if pair is None:
                break
            k, l = pair
            # push a nonzero entry onto the diagonal: row/col l added to k
            # gives A[k][k] = 2 A[k][l] != 0 in odd characteristic
            A[k] = [add[x][y] for x, y in zip(A[k], A[l])]
            for row in A:
                row[k] = add[row[k]][row[l]]
            piv = k
        d = A[piv][piv]
        diag.append(d)
        dinv = F.inv_el(d)
        for r in remaining:
            if r == piv or A[r][piv] == 0:
                continue
            f = mul[neg[mul[A[r][piv]][dinv]]]
            A[r] = [add[x][f[y]] for x, y in zip(A[r], A[piv])]
            for row in A:
                row[r] = add[row[r]][f[row[piv]]]
        remaining.remove(piv)
    if not diag:
        return RankType(0, 1)
    prod = 1
    for d in diag:
        prod = mul[prod][d]
    return RankType(len(diag), F.quadratic_character(prod))


def classify_quadratic(form) -> RankType:
    """Rank and type of a quadratic form, from its coefficient matrix M.

    Odd q delegates to the symmetric classification of the polarization.
    Even q reads the one symplectic pass of B_Q (``GramMatrix.symplectic``):
    rank(B_Q) is even; Q has rank rank(B_Q)+1 and type 1 exactly when Q does
    not vanish on Rad B_Q, otherwise the type is 0 or 2 as the Arf
    invariant has GF(2)-trace 0 or 1 (Arf, J. reine angew. Math. 183 (1941);
    Lidl & Niederreiter, Finite Fields, ch. 6).
    """
    F = form.field_q
    B = polarize(form)
    if F.p != 2:
        return classify_symmetric(B)
    rb = bilinear_rank(B)
    _, q_on_radical, arf = B.symplectic
    if q_on_radical:
        return RankType(rb + 1, 1)
    if rb == 0:
        return RankType(0, 0)
    return RankType(rb, 2 if absolute_trace_to_gf2(F, arf) else 0)


def count_solutions_closed(q: int, rt: RankType, h: int, m: int) -> int:
    """Number of x in GF(q)^m with Q(x) = h, from the rank/type of Q."""
    if rt.rank == 0:
        raise RankZero("solution counts need rank >= 1")
    F = small_field(q)
    r = rt.rank
    eps = type_sign(q, rt)
    if r % 2 == 0:
        return q ** (m - 1) + eps * F.upsilon(h) * q ** (m - (r + 2) // 2)
    if F.p == 2:
        return q ** (m - 1)
    return q ** (m - 1) + eps * F.quadratic_character(h) * q ** (m - (r + 1) // 2)


def absolute_trace_to_gf2(F: SmallField, x: int) -> int:
    """Tr from GF(2^e) down to GF(2): sum of x^(2^i)."""
    if F.p != 2:
        raise EvenCharacteristic("absolute GF(2)-trace needs characteristic two")
    acc, t = x, x
    for _ in range(F.e - 1):
        t = F.mul_el(t, t)
        acc = F.add_el(acc, t)
    return acc


def canonical_form(q: int, m: int, rt: RankType) -> CoefficientForm:
    """A canonical representative of the given rank and type.

    Odd q: x_1^2 + ... + x_{r-1}^2 + z x_r^2 with eta(z) = type.
    Even q: sum x_{2j-1}x_{2j} (+ x_{2r+1}^2 for type 1, or
    + x_{2r-1}^2 + lam x_{2r}^2 with Tr(lam) = 1 for type 2).
    """
    F = small_field(q)
    C = np.zeros((m, m), dtype=np.int64)
    r = rt.rank
    if r > m:
        raise OutOfRange("rank exceeds dimension")
    if F.p != 2:
        if r:
            for a in range(r - 1):
                C[a, a] = 1
            z = 1 if rt.type == 1 else min(set(range(1, q)) - F.squares)
            C[r - 1, r - 1] = z
        return CoefficientForm(F, C)
    if rt.type == 1:
        pairs = (r - 1) // 2
    else:
        pairs = r // 2
    for j in range(pairs):
        C[2 * j, 2 * j + 1] = 1
    if rt.type == 1:
        C[r - 1, r - 1] = 1
    elif rt.type == 2:
        lam = next(x for x in range(1, q) if absolute_trace_to_gf2(F, x) == 1)
        C[2 * pairs - 2, 2 * pairs - 2] = 1
        C[2 * pairs - 1, 2 * pairs - 1] = lam
    return CoefficientForm(F, C)


def all_rank_types(q: int, m: int):
    """Every RankType with rank 1..m for the parity of q."""
    out = []
    for r in range(1, m + 1):
        if q % 2:
            out.extend([RankType(r, 1), RankType(r, -1)])
        elif r % 2:
            out.append(RankType(r, 1))
        else:
            out.extend([RankType(r, 0), RankType(r, 2)])
    return out
