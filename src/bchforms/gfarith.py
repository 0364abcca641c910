"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^m), q = p^e.

Elements are plain integers.  A GF(q) element is the integer whose base-p
digits are its coordinates over GF(p) (polynomial basis of the base
modulus).  A GF(q^m) element is the integer whose base-q digits are its
coordinates over GF(q) (polynomial basis of the extension modulus); nested
with the base-p encoding this makes the base-p digits of the integer the
full coordinate vector over GF(p).  Zero is 0, one is 1, and GF(q) sits
inside GF(q^m) as the indices 0..q-1.

Multiplication goes through discrete-log tables, built by GF(p)-linear
algebra on digit vectors; addition is base-p digit arithmetic (XOR when
p = 2).  GF(q) for q = p^e, e >= 2, is built the same way, as the extension
GF(p^e) of GF(p), and its dense tables are read off those logs.  Every
numpy table is made read-only when it is built, and ``small_field`` and
``field_for`` cache one object per field for the whole process, shared by
fields, kernels, forms and worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .errors import BchFormsError, EvenCharacteristic, InvalidSubfield, NotPrime


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


def poly_deg(c: list[int]) -> int:
    return len(c) - 1


def poly_add(F: "SmallField", a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = F.add_el(x, y)
    return poly_trim(out)


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


def poly_mod(F: "SmallField", a: list[int], b: list[int]) -> list[int]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    inv_lead = F.inv_el(b[-1])
    while len(r) >= len(b):
        c = F.mul_el(r[-1], inv_lead)
        d = len(r) - len(b)
        for i, y in enumerate(b):
            r[d + i] = F.sub_el(r[d + i], F.mul_el(c, y))
        poly_trim(r)
    return r


def poly_gcd(F: "SmallField", a: list[int], b: list[int]) -> list[int]:
    """A gcd of a and b, up to a unit factor (not normalized to monic)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, poly_mod(F, a, b)
    return a


def poly_powmod(F: "SmallField", a: list[int], k: int, mod: list[int]) -> list[int]:
    result = [1]
    base = poly_mod(F, a, mod)
    while k:
        if k & 1:
            result = poly_mod(F, poly_mul(F, result, base), mod)
        base = poly_mod(F, poly_mul(F, base, base), mod)
        k >>= 1
    return result


def poly_is_irreducible(F: "SmallField", f: list[int]) -> bool:
    """Irreducibility over GF(q) via the Frobenius criterion:
    x^(q^d) == x mod f, and gcd(x^(q^(d/r)) - x, f) = 1 for prime r | d."""
    d = poly_deg(f)
    if d < 1:
        return False
    if d == 1:
        return True
    q = F.q
    x = [0, 1]
    frob = poly_powmod(F, x, q ** d, f)
    if frob != poly_mod(F, x, f):
        return False
    for r in factorize(d):
        g = poly_powmod(F, x, q ** (d // r), f)
        g = poly_add(F, g, [0, F.neg_el(1)])  # x^(q^(d/r)) - x
        if poly_deg(poly_gcd(F, g, f)) != 0:
            return False
    return True


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
    it is skipped before the Frobenius test."""
    for code in range(F.q ** degree):
        f = monic_poly_from_code(F, degree, code)
        if degree >= 2 and _has_root(F, f):
            continue
        if poly_is_irreducible(F, f):
            return f
    raise BchFormsError(f"no irreducible of degree {degree} over GF({F.q})")  # unreachable


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

    def sub_el(self, a: int, b: int) -> int:
        return self.add_rows[a][self.neg_list[b]]

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


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; NotPrime when q is not a prime power."""
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


@dataclass
class FieldContext:
    """The tower GF(p) < GF(q) < GF(q^m) with log/exp tables.

    ``build_field`` fixes the extension modulus; alpha and the exp/log
    tables are built together on first use, the trace tables each on
    first use after them.  Every table is read-only.
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
        base, ext_modulus, m, p, q = self.base, self.ext_modulus, self.m, self.p, self.q
        size = q ** m
        n = size - 1

        def el_mul(x: int, y: int) -> int:
            cx = [x // q ** i % q for i in range(m)]
            cy = [y // q ** i % q for i in range(m)]
            prod = poly_mod(base, poly_mul(base, cx, cy), ext_modulus)
            return sum(c * q ** i for i, c in enumerate(prod))

        def el_pow(x: int, k: int) -> int:
            r = 1
            b = x
            while k:
                if k & 1:
                    r = el_mul(r, b)
                b = el_mul(b, b)
                k >>= 1
            return r

        # alpha: the smallest unit whose order is no proper divisor of n (x^n = 1
        # holds for every unit); GF(2) has no primes in n = 1 and takes alpha = 1
        primes = factorize(n)
        alpha = next(c for c in range(1, size) if all(el_pow(c, n // r) != 1 for r in primes))

        # exp table by block doubling: exp[B:2B] = alpha^B * exp[:B], where
        # "multiply by alpha^B" is the GF(p)-matrix A^B on base-p digit vectors
        count = base.e * m
        A = digits([el_mul(alpha, p ** k) for k in range(count)], p, count).T
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

    def pow(self, x: int, k: int) -> int:
        if x == 0:
            return 0 if k > 0 else 1
        return int(self.exp_index[(int(self.log_index[x]) * k) % self.n])

    def frob(self, x: int) -> int:
        """x^q."""
        return self.pow(x, self.q)

    def in_base(self, x: int) -> bool:
        return x < self.q

    @property
    def half_step(self) -> int:
        """Index step of GF(q^(m/2))* inside the log group: q^(m/2)+1."""
        if self.m % 2:
            raise InvalidSubfield("GF(q^(m/2)) needs even m")
        return self.q ** (self.m // 2) + 1

    # -- traces -----------------------------------------------------------

    def _frob_sum(self, x: int, terms: int) -> int:
        """sum_{j<terms} x^(q^j)."""
        acc = 0
        for _ in range(terms):
            acc = self.add(acc, x)
            x = self.frob(x)
        return acc

    def _frob_sum_matrix(self, terms: int) -> np.ndarray:
        """GF(p)-matrix of x -> sum_{j<terms} x^(q^j); column k is the image of p^k."""
        count = self.e * self.m
        return digits([self._frob_sum(self.p ** k, terms) for k in range(count)], self.p, count).T

    # -- whole-orbit value tables -----------------------------------------

    @property
    def trace_vec(self) -> np.ndarray:
        """trace_vec[t] = Tr_{GF(q^m)->GF(q)}(alpha^t), int64 of length n."""
        if self._trace_vec is None:
            tau = self._frob_sum_matrix(self.m)
            if tau[self.e:].any():
                raise BchFormsError("trace left GF(q)")  # internal bug
            self._trace_vec = _frozen(_gfp_apply(tau[:self.e], self.exp_index, self.p))
        return self._trace_vec

    @property
    def half_trace_vec(self) -> np.ndarray:
        """half_trace_vec[t] = Tr_{GF(q^(m/2))->GF(q)}(alpha^t), valid only at
        exponents t that are multiples of q^(m/2)+1 (zero elsewhere)."""
        if self._half_trace_vec is None:
            s = self.half_step
            vals = _gfp_apply(self._frob_sum_matrix(self.m // 2), self.exp_index[::s], self.p)
            if (vals >= self.q).any():
                raise BchFormsError("half trace left GF(q)")  # internal bug
            out = np.zeros(self.n, dtype=np.int64)
            out[::s] = vals
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
