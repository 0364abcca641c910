"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^m), q = p^e.

Elements are plain integers.  A GF(q) element is the integer whose base-p
digits are its coordinates over GF(p) (polynomial basis of the base
modulus).  A GF(q^m) element is the integer whose base-q digits are its
coordinates over GF(q) (polynomial basis of the extension modulus); nested
with the base-p encoding this makes the base-p digits of the integer the
full coordinate vector over GF(p).  Zero is 0, one is 1, and GF(q) sits
inside GF(q^m) as the indices 0..q-1.

``PolyBasis`` is the one model of GF(q)[x]/(f) on that basis, built from
the modulus f alone (x^k mod f, Frobenius, trace functional, subfield).
The irreducibility test, alpha, the exp and trace tables and the trace
forms of ``forms`` all read it; ``_row_reduce`` is the one GF(q)
elimination.

Multiplication goes through discrete-log tables, filled by GF(p)-linear
algebra on digit vectors; addition is base-p digit arithmetic (XOR when
p = 2).  GF(q) for q = p^e, e >= 2, is built the same way, as the extension
GF(p^e) of GF(p), and its dense tables are read off those logs.  Every
numpy table is made read-only when it is built, and ``small_field``,
``field_for`` and ``poly_basis`` cache one object per field for the whole
process, shared by fields, kernels, forms and worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

from .errors import BchFormsError, EvenCharacteristic, InvalidSubfield, NotPrime, OutOfRange


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n stays desk-scale here)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def digits(x, base: int, count: int) -> np.ndarray:
    """Digits of the integers x in the given base, lowest first: shape x.shape + (count,)."""
    x = np.asarray(x, dtype=np.int64)
    out = np.empty(x.shape + (count,), dtype=np.int64)
    for k in range(count):
        x, out[..., k] = np.divmod(x, base)
    return out


# ---------------------------------------------------------------------------
# Polynomials over a small field.
#
# A Poly is a plain list of field element indices, lowest degree first, with
# no trailing zeros ([] is the zero polynomial).  These are only used at
# construction/desk scale, so clarity beats speed.
# ---------------------------------------------------------------------------


def poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(F: "SmallField", a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = F.add_el(out[i + j], F.mul_el(x, y))
    return poly_trim(out)


def monic_poly_from_code(F: "SmallField", degree: int, code: int) -> list[int]:
    """Monic degree-d polynomial whose lower coefficients are the base-q
    digits of `code` (code = 0 gives x^d)."""
    coeffs = []
    for _ in range(degree):
        coeffs.append(code % F.q)
        code //= F.q
    return coeffs + [1]


def _has_root(F: "SmallField", f: list[int]) -> bool:
    """Whether f vanishes at some element of GF(q) (Horner at each)."""
    for a in range(F.q):
        acc = 0
        for c in reversed(f):
            acc = F.add_el(F.mul_el(acc, a), c)
        if acc == 0:
            return True
    return False


def smallest_irreducible(F: "SmallField", degree: int) -> list[int]:
    """The monic irreducible of the given degree with the least code.  A
    candidate of degree >= 2 with a root in GF(q) has a linear factor, so
    it is skipped before the Berlekamp test (``PolyBasis.is_irreducible``)."""
    for code in range(F.q ** degree):
        f = monic_poly_from_code(F, degree, code)
        if degree >= 2 and _has_root(F, f):
            continue
        if PolyBasis(F, tuple(f)).is_irreducible():
            return f
    raise BchFormsError(f"no irreducible of degree {degree} over GF({F.q})")  # unreachable


# ---------------------------------------------------------------------------
# Linear algebra over GF(q): the one elimination
# ---------------------------------------------------------------------------


def _row_reduce(M, F: "SmallField") -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination over GF(q) of a matrix of any shape: the
    reduced row echelon rows and the pivot columns."""
    add, mul, neg = F.add_rows, F.mul_rows, F.neg_list
    A = np.asarray(M, dtype=np.int64).tolist()
    cols = len(A[0]) if A else 0
    pivots: list[int] = []
    for c in range(cols):
        top = len(pivots)
        piv = next((r for r in range(top, len(A)) if A[r][c]), None)
        if piv is None:
            continue
        A[top], A[piv] = A[piv], A[top]
        scale = mul[F.inv_el(A[top][c])]
        prow = A[top] = [scale[v] for v in A[top]]
        for r, row in enumerate(A):
            if r != top and row[c]:
                f = mul[neg[row[c]]]
                A[r] = [add[x][f[y]] for x, y in zip(row, prow)]
        pivots.append(c)
    return A, pivots


def _null_space(F: "SmallField", reduced: tuple[list[list[int]], list[int]], cols: int) -> list[list[int]]:
    """Basis of {v : A v = 0} as GF(q) coordinate vectors, from
    ``_row_reduce(A)`` of an A with the given number of columns: one
    vector per free column."""
    A, pivots = reduced
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg_el(A[r][fc])
        basis.append(v)
    return basis


def _solve(F: "SmallField", A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One solution of A x = b over GF(q), free coordinates zero."""
    rows, pivots = _row_reduce(np.column_stack([A, b]), F)
    m = A.shape[1]
    if m in pivots:
        raise BchFormsError("inconsistent linear system")  # internal bug
    x = np.zeros(m, dtype=np.uint8)
    for row, c in zip(rows, pivots):
        x[c] = row[m]
    return x


# ---------------------------------------------------------------------------
# GF(q) = GF(p^e)
# ---------------------------------------------------------------------------


class SmallField:
    """GF(p^e) with dense, read-only operation tables.

    The q x q tables keep hot loops branch-free; the package reaches
    q = 16 (GF(16^5) in the CLI examples), and the tables are exact up to
    q = 256.  For e >= 2 the field is ``build_field(p, 1, e)`` and mul and
    inv are read off its log/exp tables.  ``matmul`` is the one GF(q)
    matrix product on element-index arrays, shared by the kernels, the
    t-design test and the generator route.
    """

    def __init__(self, p: int, e: int = 1):
        if prime_power(p) != (p, 1):
            raise NotPrime(f"{p} is not prime")
        if e < 1:
            raise BchFormsError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = q = p ** e
        if q > 256:
            raise OutOfRange(f"GF({q}) is above GF(256), the largest field whose tables fit uint8")

        digs = digits(np.arange(q), p, e)
        ppow = p ** np.arange(e)
        self.add = _frozen(((digs[:, None, :] + digs[None, :, :]) % p @ ppow).astype(np.uint8))
        self.neg = _frozen(((-digs) % p @ ppow).astype(np.uint8))
        if e == 1:
            self.modulus = [0, 1]
            mul = np.arange(q)[:, None] * np.arange(q) % p
            inv = [0] + [pow(a, -1, p) for a in range(1, q)]
        else:
            ext = build_field(p, 1, e)
            self.modulus = ext.ext_modulus
            exp, log = ext.exp_index, ext.log_index[1:]
            mul = np.zeros((q, q), dtype=np.int64)
            mul[1:, 1:] = exp[(log[:, None] + log) % (q - 1)]
            inv = [0] + exp[-log % (q - 1)].tolist()
        self.mul = _frozen(mul.astype(np.uint8))
        self.inv = _frozen(np.array(inv, dtype=np.uint8))

        # list copies for scalar lookups, several times cheaper than numpy's
        self.add_rows = self.add.tolist()
        self.mul_rows = self.mul.tolist()
        self.neg_list = self.neg.tolist()
        self.inv_list = self.inv.tolist()

        self.squares = frozenset(self.mul.diagonal()[1:].tolist())
        self._eta = [0] + [1 if a in self.squares else -1 for a in range(1, q)]

    # scalar ops (ints in 0..q-1)
    def add_el(self, a: int, b: int) -> int:
        return self.add_rows[a][b]

    def neg_el(self, a: int) -> int:
        return self.neg_list[a]

    def mul_el(self, a: int, b: int) -> int:
        return self.mul_rows[a][b]

    def inv_el(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.inv_list[a]

    def matmul(self, A, B) -> np.ndarray:
        """The GF(q) product of element-index arrays (uint8): the last axis
        of A contracted with the first axis of B, so the result has shape
        A.shape[:-1] + B.shape[1:].  Each inner index k is one row gather,
        mul[:, B[k]][A[..., k]], and one gather of the addition table."""
        A, B = np.asarray(A), np.asarray(B)
        if not A.ndim or not B.ndim or A.shape[-1] != B.shape[0]:
            raise BchFormsError(f"cannot contract shapes {A.shape} and {B.shape}")
        out = np.zeros(A.shape[:-1] + B.shape[1:], dtype=np.uint8)
        for k in range(B.shape[0]):
            out = self.add[out, self.mul[:, B[k]][A[..., k]]]
        return out

    def quadratic_character(self, a: int) -> int:
        """eta(a): +1 for nonzero squares, -1 for nonsquares, 0 at zero."""
        if self.p == 2:
            raise EvenCharacteristic("quadratic character needs odd q")
        return self._eta[a]

    def upsilon(self, a: int) -> int:
        """-1 on nonzero elements, q-1 at zero."""
        return self.q - 1 if a == 0 else -1

    def half(self, a: int) -> int:
        """a/2, only defined in odd characteristic."""
        if self.p == 2:
            raise EvenCharacteristic("no 1/2 in characteristic two")
        return self.mul_el(a, self.inv_el(self.add_el(1, 1)))

    def __repr__(self) -> str:
        return f"SmallField(p={self.p}, e={self.e})"


# prime_power factors q by trial division, so it refuses a q above MAX_Q
# first.  Its worst case below the bound, the prime 2^32 - 5, takes 2^16
# divisions: about 8 ms on 2 vCPUs.
MAX_Q = 1 << 32


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; NotPrime when q is not a prime power,
    OutOfRange above MAX_Q."""
    if q > MAX_Q:
        raise OutOfRange(f"q={q} is above the largest checked field size 2^32")
    fac = factorize(q)
    if len(fac) != 1:
        raise NotPrime(f"{q} is not a prime power")
    (p, e), = fac.items()
    return p, e


@lru_cache(maxsize=None)
def small_field(q: int) -> SmallField:
    """SmallField for a prime power q (cached)."""
    return SmallField(*prime_power(q))


def eta_minus_one(q: int) -> int:
    """eta(-1) for odd q."""
    F = small_field(q)
    return F.quadratic_character(F.neg_el(1))


# ---------------------------------------------------------------------------
# GF(q^m)
# ---------------------------------------------------------------------------


def digitwise(x: int, y: int, p: int, sign: int = 1) -> int:
    """x + sign*y, base-p digit by digit (XOR when p = 2).

    This is addition in GF(q^m) on element indices, and equally in GF(q)^m
    on the point indices sum_a c_a q^a, since the base-p digits of either
    index are its full coordinate vector over GF(p).
    """
    x, y = int(x), int(y)
    if p == 2:
        return x ^ y
    out, w = 0, 1
    while x > 0 or y > 0:
        out += (x + sign * y) % p * w
        x, y, w = x // p, y // p, w * p
    return out


def _gfp_apply(L: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """Apply the GF(p)-matrix L to the vectors whose base-p digits are the
    integers x; the images come back base-p encoded (row r of L gives digit
    r).  For p = 2 each output bit is the parity of x & row."""
    if p == 2:
        out = np.zeros(len(x), dtype=np.int64)
        for r, mask in enumerate(L @ (1 << np.arange(L.shape[1], dtype=np.int64))):
            out |= (np.bitwise_count(x & mask) & 1).astype(np.int64) << r
        return out
    return (digits(x, p, L.shape[1]) @ L.T % p) @ p ** np.arange(L.shape[0], dtype=np.int64)


def _gfp_matrix(F: SmallField, K: np.ndarray) -> np.ndarray:
    """The GF(q)-linear map x -> sum_r x_r K[r] (K of shape (rows, cols))
    as an int64 matrix on base-p digits: row r*e + u is the image of the
    GF(q) element p^u in place r, column c*e + v the base-p digit v of
    output c.  At prime q it is K itself."""
    scaled = F.mul[(F.p ** np.arange(F.e))[:, None, None], K[None]]  # [u, r, c]
    return digits(scaled, F.p, F.e).transpose(1, 0, 2, 3).reshape(K.shape[0] * F.e, K.shape[1] * F.e)


def _gfp_power(A: np.ndarray, k: int, p: int) -> np.ndarray:
    """A^k over GF(p) by repeated squaring, A a square int64 matrix."""
    out = np.eye(len(A), dtype=np.int64)
    while k:
        if k & 1:
            out = out @ A % p
        A, k = A @ A % p, k >> 1
    return out


def _power_coords(F: SmallField, modulus: tuple[int, ...], count: int) -> np.ndarray:
    """P[k] = GF(q) coordinates of x^k mod f for k < count, f the monic
    modulus: x^(k+1) is x^k shifted up one place, its top coordinate c
    folded back through x^m = -(f_0 + ... + f_(m-1) x^(m-1)).  The rows
    are short, so they are built as lists."""
    m = len(modulus) - 1
    add, mul = F.add_rows, F.mul_rows
    fold = [F.neg_el(c) for c in modulus[:m]]
    rows, row = [], [1] + [0] * (m - 1)
    for _ in range(count):
        rows.append(row)
        top = mul[row[-1]]
        row = [add[a][top[c]] for a, c in zip([0] + row[:-1], fold)]
    return np.array(rows, dtype=np.uint8)


class PolyBasis:
    """GF(q)[x]/(f), f monic of degree m, on the polynomial basis x^a
    (a < m), from the modulus alone.  ``powers[k]`` holds the coordinates
    of x^k mod f for k < 3m-2 and k <= (m-1)q, and ``frobenius`` is Phi,
    the matrix of y -> y^q (column a is x^(aq) mod f); the rest is read
    off them on first use.  Every array is read-only.
    """

    def __init__(self, F: SmallField, modulus: tuple[int, ...]):
        m, q = len(modulus) - 1, F.q
        self.field_q, self.m = F, m
        self.powers = _frozen(_power_coords(F, modulus, max(3 * m - 2, (m - 1) * q + 1)))
        self.frobenius = _frozen(self.powers[np.arange(m) * q].T)

    def is_irreducible(self) -> bool:
        """Berlekamp's test (Lidl & Niederreiter, Finite Fields, ch. 4):
        nullity(Phi - 1) is the number of distinct irreducible factors of
        f, so f is a power of one irreducible iff it is 1.  Phi^m = 1, that
        is f | x^(q^m) - x, then rules out a repeated factor, since
        x^(q^m) - x is squarefree."""
        F, m = self.field_q, self.m
        G = _gfp_matrix(F, self.frobenius.T)  # digits(y) @ G = digits(y^q)
        if not np.array_equal(_gfp_power(G, m, F.p), np.eye(len(G), dtype=np.int64)):
            return False
        return len(_row_reduce(F.add[self.frobenius, F.neg[np.eye(m, dtype=np.uint8)]], F)[1]) == m - 1

    def multiplication(self, c: int) -> np.ndarray:
        """Row a holds the coordinates of c x^a, c an element index: the
        sum over b of c_b (x^(a+b) mod f)."""
        ar = np.arange(self.m)
        return self.field_q.matmul(digits(c, self.field_q.q, self.m), self.powers[ar[:, None] + ar])

    @cached_property
    def trace(self) -> np.ndarray:
        """t_k = Tr(x^k) for k < 3m-2.  For k < m it is the trace of the
        multiplication by x^k, sum_d (x^(k+d) mod f)_d; the trace is
        GF(q)-linear, so every t_k is then the functional (t_0 .. t_(m-1))
        applied to the coordinates of x^k mod f."""
        F, m = self.field_q, self.m
        t = np.zeros(m, dtype=np.uint8)
        for d in range(m):
            t = F.add[t, self.powers[d:d + m, d]]
        return _frozen(F.matmul(self.powers[:3 * m - 2], t))

    @cached_property
    def frobenius_powers(self) -> tuple[np.ndarray, ...]:
        """Phi^j for j = 0..m."""
        out = [np.eye(self.m, dtype=np.uint8)]
        for _ in range(self.m):
            out.append(_frozen(self.field_q.matmul(self.frobenius, out[-1])))
        return tuple(out)

    @cached_property
    def xi(self) -> int:
        """The element index of one xi with xi + xi^(q^(m/2)) = 1 (even m),
        so that Tr(xi z) is the trace of z from GF(q^(m/2)) down to GF(q)."""
        F, m = self.field_q, self.m
        eye = np.eye(m, dtype=np.uint8)
        coords = _solve(F, F.add[eye, self.frobenius_powers[m // 2]], eye[0])
        return int(coords @ F.q ** np.arange(m, dtype=np.int64))

    @cached_property
    def half_field(self) -> frozenset[int]:
        """The element indices of GF(q^(m/2)) (even m), the lam with
        Phi^(m/2) lam = lam: every GF(p) combination of a kernel basis on
        base-p digits."""
        F = self.field_q
        p, Fp = F.p, small_field(F.p)
        A = F.add[self.frobenius_powers[self.m // 2], F.neg[np.eye(self.m, dtype=np.uint8)]]
        G = _gfp_matrix(F, A.T)  # digits(lam) @ G = digits(A lam)
        basis = np.array(_null_space(Fp, _row_reduce(G.T, Fp), len(G)), dtype=np.int64)
        combos = digits(np.arange(p ** len(basis)), p, len(basis))
        return frozenset((combos @ basis % p @ p ** np.arange(len(G), dtype=np.int64)).tolist())


@lru_cache(maxsize=None)
def poly_basis(F: SmallField, modulus: tuple[int, ...]) -> PolyBasis:
    """The PolyBasis of GF(q)[x]/(modulus), built once."""
    return PolyBasis(F, modulus)


@dataclass
class FieldContext:
    """The tower GF(p) < GF(q) < GF(q^m) with log/exp tables.

    ``build_field`` fixes the extension modulus; alpha and the exp/log
    tables are built together on first use, the trace tables each on
    first use after them, all from the model ``basis``.  Every table is
    read-only.
    """

    base: SmallField
    m: int
    ext_modulus: list[int]
    _alpha: int | None = dataclass_field(default=None, repr=False)
    _exp_index: np.ndarray | None = dataclass_field(default=None, repr=False)
    _log_index: np.ndarray | None = dataclass_field(default=None, repr=False)
    _trace_vec: np.ndarray | None = dataclass_field(default=None, repr=False)
    _half_trace_vec: np.ndarray | None = dataclass_field(default=None, repr=False)

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def e(self) -> int:
        return self.base.e

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def size(self) -> int:
        return self.q ** self.m

    @property
    def n(self) -> int:
        return self.size - 1

    @property
    def basis(self) -> PolyBasis:
        """The polynomial-basis model of GF(q)[x]/(ext_modulus)."""
        return poly_basis(self.base, tuple(self.ext_modulus))

    # -- log/exp tables ---------------------------------------------------

    @property
    def alpha(self) -> int:
        """The smallest element index of multiplicative order q^m - 1."""
        if self._alpha is None:
            self._build_log_exp()
        return self._alpha

    @property
    def exp_index(self) -> np.ndarray:
        """exp_index[t] = alpha^t, int64 of length n."""
        if self._exp_index is None:
            self._build_log_exp()
        return self._exp_index

    @property
    def log_index(self) -> np.ndarray:
        """log_index[x] = log_alpha(x), int64 of length q^m (log_index[0] = -1)."""
        if self._log_index is None:
            self._build_log_exp()
        return self._log_index

    def _build_log_exp(self) -> None:
        p, size = self.p, self.size
        n = size - 1

        # alpha: the smallest unit whose order is no proper divisor of n, i.e.
        # whose GF(p)-matrix A of "multiply by alpha" has A^(n/r) != 1 for
        # every prime r | n; GF(2) has no primes in n = 1 and takes alpha = 1.
        # The largest r goes first: it rejects the GF(q) elements c < q,
        # whose order divides q - 1, with one power each.
        primes = sorted(factorize(n), reverse=True)
        one = np.eye(self.e * self.m, dtype=np.int64)
        for alpha in range(1, size):
            A = _gfp_matrix(self.base, self.basis.multiplication(alpha)).T
            if not any(np.array_equal(_gfp_power(A, n // r, p), one) for r in primes):
                break

        # exp table by block doubling: exp[B:2B] = alpha^B * exp[:B], where
        # "multiply by alpha^B" is the GF(p)-matrix A^B on base-p digit vectors
        exp_index = np.empty(n, dtype=np.int64)
        exp_index[0] = 1
        AB, B = A, 1
        while B < n:
            k = min(B, n - B)
            exp_index[B:B + k] = _gfp_apply(AB, exp_index[:k], p)
            AB, B = AB @ AB % p, 2 * B
        if _gfp_apply(A, exp_index[-1:], p)[0] != 1:
            raise BchFormsError("alpha order mismatch")  # internal bug
        log_index = np.full(size, -1, dtype=np.int64)
        log_index[exp_index] = np.arange(n)
        if (log_index[1:] < 0).any():
            raise BchFormsError("exp table is not a bijection")  # internal bug
        self._alpha = alpha
        self._exp_index = _frozen(exp_index)
        self._log_index = _frozen(log_index)

    # -- ring operations -------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return digitwise(x, y, self.p)

    def neg(self, x: int) -> int:
        return digitwise(0, x, self.p, -1)

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return int(self.exp_index[(int(self.log_index[x]) + int(self.log_index[y])) % self.n])

    def in_base(self, x: int) -> bool:
        return x < self.q

    @property
    def half_step(self) -> int:
        """Index step of GF(q^(m/2))* inside the log group: q^(m/2)+1."""
        if self.m % 2:
            raise InvalidSubfield("GF(q^(m/2)) needs even m")
        return self.q ** (self.m // 2) + 1

    # -- whole-orbit value tables -----------------------------------------

    @property
    def trace_vec(self) -> np.ndarray:
        """trace_vec[t] = Tr_{GF(q^m)->GF(q)}(alpha^t), int64 of length n:
        the functional (t_0 .. t_(m-1)) of ``basis`` on the digits of exp."""
        if self._trace_vec is None:
            L = _gfp_matrix(self.base, self.basis.trace[:self.m, None]).T
            self._trace_vec = _frozen(_gfp_apply(L, self.exp_index, self.p))
        return self._trace_vec

    @property
    def half_trace_vec(self) -> np.ndarray:
        """half_trace_vec[t] = Tr_{GF(q^(m/2))->GF(q)}(alpha^t), valid only at
        exponents t that are multiples of q^(m/2)+1 (zero elsewhere): there
        alpha^t lies in GF(q^(m/2)), and its half trace is Tr(xi alpha^t)."""
        if self._half_trace_vec is None:
            s, n = self.half_step, self.n
            t = np.arange(0, n, s)
            out = np.zeros(n, dtype=np.int64)
            out[t] = self.trace_vec[(t + self.log_index[self.basis.xi]) % n]
            self._half_trace_vec = _frozen(out)
        return self._half_trace_vec

    def to_spec(self) -> dict:
        """JSON-serializable field description."""
        return {
            "p": self.p,
            "e": self.e,
            "m": self.m,
            "base_modulus": [int(c) for c in self.base.modulus],
            "ext_modulus": [int(c) for c in self.ext_modulus],
        }

    def __repr__(self) -> str:
        return f"FieldContext(GF({self.q}^{self.m}), ext_modulus={self.ext_modulus})"


def build_field(p: int, e: int, m: int) -> FieldContext:
    """Construct the tower GF(p) < GF(p^e) < GF(p^(e*m)) over the cached
    base ``small_field(p^e)``.

    The extension modulus is the monic irreducible of degree m over GF(q)
    with the smallest integer encoding (base-q digits of the non-leading
    coefficients), and alpha is the smallest element index of
    multiplicative order q^m - 1.  Both choices are deterministic, so
    (p, e, m) fixes the field and ``to_spec()`` reproduces it.  Only the
    modulus is found here; alpha and the tables are built on first use.
    """
    if e < 1 or m < 1:
        raise BchFormsError("e and m must be >= 1")
    base = small_field(p ** e)
    if base.p != p:
        raise NotPrime(f"{p} is not prime")
    return FieldContext(base=base, m=m, ext_modulus=smallest_irreducible(base, m))


@lru_cache(maxsize=None)
def field_for(q: int, m: int) -> FieldContext:
    """Cached canonical FieldContext for GF(q^m), q a prime power."""
    return build_field(*prime_power(q), m)
