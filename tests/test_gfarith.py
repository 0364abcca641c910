import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from bchforms import gfarith
from bchforms.cyclotomic import theorem_sweep
from bchforms.errors import BchFormsError, EvenCharacteristic, InvalidSubfield, NotPrime, OutOfRange
from bchforms.gfarith import FieldContext, SmallField, build_field, field_for, small_field
from field_reference import frob, poly_add, poly_is_irreducible, poly_mod, power


SMALL_TOWERS = [(2, 1, 3), (2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 1)]
DESK_TOWERS = SMALL_TOWERS + [(2, 1, 16), (3, 1, 9), (2, 2, 7), (5, 1, 6)]


def reference_tables(p: int, e: int, m: int):
    """alpha, exp, log, trace and half-trace vectors the slow way: a size x e*m
    base-p digit matrix, n successive products by the "multiply by alpha"
    matrix, and traces as sums of m (or m/2) Frobenius gathers."""
    base = SmallField(p, e)
    q = base.q
    modulus = gfarith.smallest_irreducible(base, m)
    size, n, count = q ** m, q ** m - 1, e * m
    digs = np.zeros((size, count), dtype=np.int64)
    v = np.arange(size)
    for k in range(count):
        digs[:, k] = v % p
        v //= p
    ppow = p ** np.arange(count, dtype=np.int64)

    def el_mul(x, y):
        cx = [x // q ** k % q for k in range(m)]
        cy = [y // q ** k % q for k in range(m)]
        prod = poly_mod(base, gfarith.poly_mul(base, cx, cy), modulus)
        return sum(c * q ** k for k, c in enumerate(prod))

    def el_pow(x, k):
        r = 1
        while k:
            if k & 1:
                r = el_mul(r, x)
            x = el_mul(x, x)
            k >>= 1
        return r

    primes = gfarith.factorize(n)
    alpha = next(c for c in range(1, size)
                 if el_pow(c, n) == 1 and all(el_pow(c, n // r) != 1 for r in primes))
    A = np.zeros((count, count), dtype=np.int64)
    for k in range(count):
        A[:, k] = digs[el_mul(alpha, p ** k)]
    exp_digits = np.zeros((n, count), dtype=np.int64)
    vcur = digs[1].copy()
    for k in range(n):
        exp_digits[k] = vcur
        vcur = (A @ vcur) % p
    assert np.array_equal(vcur, digs[1])
    exp = exp_digits @ ppow
    log = np.full(size, -1, dtype=np.int64)
    log[exp] = np.arange(n)

    def frobenius_sum(t, terms):
        acc = np.zeros((len(t), count), dtype=np.int64)
        for j in range(terms):
            acc += digs[exp[(t * pow(q, j, n)) % n]]
        return (acc % p) @ ppow

    trace = frobenius_sum(np.arange(n, dtype=np.int64), m)
    half = None
    if m % 2 == 0:
        t = np.arange(0, n, q ** (m // 2) + 1, dtype=np.int64)
        half = np.zeros(n, dtype=np.int64)
        half[t] = frobenius_sum(t, m // 2)
    return alpha, exp, log, trace, half


def reference_small_field(p: int, e: int):
    """modulus, add, neg, mul and inv of GF(p^e) by coefficient lists: every
    sum and every product of two elements reduced mod the smallest
    irreducible of degree e over GF(p), and each inverse found by search in
    its row of the product table."""
    Fp, q = small_field(p), p ** e
    modulus = gfarith.smallest_irreducible(Fp, e)
    coeffs = gfarith.digits(np.arange(q), p, e).tolist()

    def index(c):
        return sum(x * p ** k for k, x in enumerate(c))

    add = np.zeros((q, q), dtype=np.uint8)
    mul = np.zeros((q, q), dtype=np.uint8)
    for a in range(q):
        for b in range(a, q):
            add[a, b] = add[b, a] = index(poly_add(Fp, coeffs[a], coeffs[b]))
            prod = poly_mod(Fp, gfarith.poly_mul(Fp, coeffs[a], coeffs[b]), modulus)
            mul[a, b] = mul[b, a] = index(prod)
    neg = np.array([index([Fp.neg_el(x) for x in c]) for c in coeffs], dtype=np.uint8)
    inv = np.zeros(q, dtype=np.uint8)
    for a in range(1, q):
        inv[a] = np.nonzero(mul[a] == 1)[0][0]
    return modulus, add, neg, mul, inv


def digitwise(p: int, count: int, *xs: int, sign: int = 1) -> int:
    """Coordinate-wise sign * (x_1 + x_2 + ...) over GF(p), digit by digit."""
    return sum(sign * sum(x // p ** k % p for x in xs) % p * p ** k for k in range(count))


def brute_mul(ctx: FieldContext, x: int, y: int) -> int:
    """Schoolbook product through coefficient vectors, independent of the log tables."""
    F, q = ctx.base, ctx.q
    cx = gfarith.digits(x, q, ctx.m).tolist()
    cy = gfarith.digits(y, q, ctx.m).tolist()
    prod = poly_mod(F, gfarith.poly_mul(F, cx, cy), ctx.ext_modulus)
    return sum(c * q ** k for k, c in enumerate(prod))


def test_build_field_trivial_prime_field():
    ctx = build_field(2, 1, 1)
    assert ctx.size == 2
    assert ctx.alpha == 1


def test_build_field_gf27():
    ctx = build_field(3, 1, 3)
    assert ctx.size == 27
    # alpha has order exactly 26
    seen = {power(ctx, ctx.alpha, k) for k in range(26)}
    assert len(seen) == 26


def test_build_field_gf16_over_gf4():
    ctx = build_field(2, 2, 2)
    assert ctx.q == 4 and ctx.size == 16
    # verify order 15 by exhaustive powering
    x = ctx.alpha
    order = 1
    y = x
    while y != 1:
        y = ctx.mul(y, x)
        order += 1
    assert order == 15


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        build_field(4, 1, 2)
    with pytest.raises(NotPrime):
        small_field(6)


def test_field_size_bounds():
    # q up to 2^32 is factored, GF(q) tables reach q = 256; past either
    # bound the refusal comes first
    assert gfarith.prime_power(gfarith.MAX_Q) == (2, 32)
    with pytest.raises(OutOfRange):
        gfarith.prime_power(gfarith.MAX_Q + 1)
    assert small_field(256).q == 256
    for q in (257, 512):
        with pytest.raises(OutOfRange):
            small_field(q)


@pytest.mark.parametrize("p,e,m", SMALL_TOWERS)
def test_log_exp_bijection(p, e, m):
    ctx = build_field(p, e, m)
    for x in range(1, ctx.size):
        assert ctx.exp_index[ctx.log_index[x]] == x


@pytest.mark.parametrize("p,e,m", SMALL_TOWERS)
def test_field_axioms_sampled(p, e, m):
    ctx = build_field(p, e, m)
    size = ctx.size
    if size <= 32:
        triples = itertools.product(range(size), repeat=3)
    else:
        rng = np.random.default_rng(7)
        triples = (tuple(rng.integers(0, size, 3)) for _ in range(400))
    for x, y, z in triples:
        x, y, z = int(x), int(y), int(z)
        assert ctx.mul(x, ctx.mul(y, z)) == ctx.mul(ctx.mul(x, y), z)
        assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
        assert ctx.mul(x, y) == brute_mul(ctx, x, y)
    for x in range(1, size):
        assert ctx.mul(x, power(ctx, x, -1)) == 1


@pytest.mark.parametrize("p,e,m", SMALL_TOWERS)
def test_frobenius_additive(p, e, m):
    ctx = build_field(p, e, m)
    for x in range(ctx.size):
        for y in range(min(ctx.size, 16)):
            assert frob(ctx, ctx.add(x, y)) == ctx.add(frob(ctx, x), frob(ctx, y))


def trace_by_index(ctx: FieldContext) -> np.ndarray:
    """Tr(x) at every element index x, read off trace_vec (Tr(0) = 0)."""
    tr = np.zeros(ctx.size, dtype=np.int64)
    tr[ctx.exp_index] = ctx.trace_vec
    return tr


def test_trace_of_subfield_elements():
    ctx = build_field(3, 1, 3)
    for c in range(1, 3):
        # Tr(c) = m*c for c in GF(q)
        expected = 0
        for _ in range(ctx.m):
            expected = ctx.base.add_el(expected, c)
        assert ctx.trace_vec[ctx.log_index[c]] == expected


def test_trace_gf8_explicit():
    # the modulus is x^3 + x + 1 over GF(2); Tr(a) = a + a^2 + a^4
    ctx = build_field(2, 1, 3)
    assert ctx.ext_modulus == [1, 1, 0, 1]
    a = ctx.alpha
    s = ctx.add(ctx.add(a, power(ctx, a, 2)), power(ctx, a, 4))
    assert ctx.trace_vec[ctx.log_index[a]] == s


@pytest.mark.parametrize("p,e,m", SMALL_TOWERS)
def test_trace_linear_and_surjective(p, e, m):
    ctx = build_field(p, e, m)
    tr = trace_by_index(ctx)
    # surjective with uniform fibers of size q^(m-1)
    assert np.bincount(tr, minlength=ctx.q).tolist() == [ctx.q ** (ctx.m - 1)] * ctx.q
    for x in range(min(ctx.size, 40)):
        for y in range(min(ctx.size, 20)):
            assert tr[ctx.add(x, y)] == ctx.base.add_el(int(tr[x]), int(tr[y]))


def test_half_trace_vec():
    ctx = build_field(2, 1, 4)
    s = ctx.half_step
    assert s == 5
    half = reference_tables(2, 1, 4)[4]
    # the multiples of half_step are the logs of GF(4)*, the fixed points of
    # x -> x^4, and half_trace_vec is zero off them
    fixed = {int(ctx.log_index[x]) for x in range(1, ctx.size) if power(ctx, x, ctx.q ** 2) == x}
    assert set(np.flatnonzero(ctx.half_trace_vec)) <= fixed == set(range(0, ctx.n, s))
    assert ctx.half_trace_vec.tobytes() == half.tobytes()
    with pytest.raises(InvalidSubfield):
        build_field(2, 1, 3).half_step  # noqa: B018


def test_quadratic_character():
    F3 = small_field(3)
    assert F3.quadratic_character(0) == 0
    assert F3.quadratic_character(1) == 1
    assert F3.quadratic_character(2) == -1
    with pytest.raises(EvenCharacteristic):
        small_field(4).quadratic_character(1)
    for q in (3, 5, 7, 9):
        F = small_field(q)
        vals = [F.quadratic_character(a) for a in range(1, q)]
        assert vals.count(1) == (q - 1) // 2
        assert vals.count(-1) == (q - 1) // 2
        for a in range(1, q):
            for b in range(1, q):
                assert F.quadratic_character(F.mul_el(a, b)) == F.quadratic_character(
                    a
                ) * F.quadratic_character(b)


def test_upsilon():
    F5 = small_field(5)
    assert F5.upsilon(0) == 4
    assert F5.upsilon(3) == -1
    assert small_field(2).upsilon(1) == -1


def test_field_spec_roundtrip():
    ctx = field_for(4, 3)
    spec = ctx.to_spec()
    ctx2 = build_field(spec["p"], spec["e"], spec["m"])
    assert ctx2.to_spec() == spec
    assert ctx2.alpha == ctx.alpha
    assert np.array_equal(ctx2.exp_index, ctx.exp_index)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 243, 256])
def test_small_field_equals_polynomial_products(q):
    F = small_field(q)
    modulus, add, neg, mul, inv = reference_small_field(F.p, F.e)
    assert F.modulus == modulus
    for table, ref in ((F.add, add), (F.neg, neg), (F.mul, mul), (F.inv, inv)):
        assert table.dtype == np.uint8
        assert table.tobytes() == ref.tobytes()
    assert F.squares == {int(mul[a, a]) for a in range(1, q)}


def scalar_matmul(F, A, B):
    """Reference for SmallField.matmul: the triple loop of scalar products
    and sums, over the last axis of A and the first axis of B."""
    A, B = np.asarray(A), np.asarray(B)
    out = np.zeros(A.shape[:-1] + B.shape[1:], dtype=np.int64)
    for i in np.ndindex(A.shape[:-1]):
        for j in np.ndindex(B.shape[1:]):
            acc = 0
            for k in range(A.shape[-1]):
                acc = F.add_el(acc, F.mul_el(int(A[i + (k,)]), int(B[(k,) + j])))
            out[i + j] = acc
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_matmul_equals_scalar_loop(q):
    F = small_field(q)
    rng = np.random.default_rng(q)
    cases = [
        ((4, 5), (5, 3)),     # plain matrices
        ((6, 4), (4,)),       # 1-D B: matrix times vector
        ((4,), (4, 3)),       # 1-D A: vector times matrix
        ((3, 2, 5), (5, 4)),  # batched A
        ((3, 5), (5, 2, 4)),  # batched B
        ((3, 0), (0, 4)),     # inner dimension 0: all zero
    ]
    for a_shape, b_shape in cases:
        A = rng.integers(0, q, a_shape)
        B = rng.integers(0, q, b_shape).astype(np.uint8)
        got = F.matmul(A, B)
        assert got.dtype == np.uint8
        assert got.shape == a_shape[:-1] + b_shape[1:]
        assert np.array_equal(got, scalar_matmul(F, A, B)), (q, a_shape, b_shape)
    with pytest.raises(BchFormsError):
        F.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))


def test_one_small_field_per_q():
    assert field_for(4, 3).base is field_for(4, 5).base is build_field(2, 2, 2).base is small_field(4)
    assert field_for(16, 2).base is small_field(16)
    assert small_field(16).modulus == build_field(2, 1, 4).ext_modulus


def test_tables_build_on_first_use():
    # field_for finds the modulus; alpha, exp and log come together on first
    # use, each trace table on its own first use
    fld = field_for.__wrapped__(2, 6)
    assert fld.ext_modulus == field_for(2, 6).ext_modulus
    assert [fld._alpha, fld._exp_index, fld._log_index, fld._trace_vec, fld._half_trace_vec] == [None] * 5
    assert fld.log_index.tobytes() == field_for(2, 6).log_index.tobytes()
    assert fld._alpha == field_for(2, 6).alpha and fld._exp_index is not None
    assert fld._trace_vec is None and fld._half_trace_vec is None
    assert fld.trace_vec.tobytes() == field_for(2, 6).trace_vec.tobytes() and fld._half_trace_vec is None


def test_tables_are_read_only():
    fld = field_for(4, 4)
    F = fld.base
    for table in (fld.exp_index, fld.log_index, fld.trace_vec, fld.half_trace_vec,
                  F.add, F.neg, F.mul, F.inv):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = table[1]


# every q <= 9 at small and large m, the classify-form fields of the
# cli-cold benchmark, and GF(q^2) up to q = 64
DIGEST_GRID = [(2, 1), (2, 2), (2, 5), (2, 8), (2, 13), (2, 19), (3, 1), (3, 4), (3, 11), (4, 3),
               (4, 9), (5, 4), (5, 7), (7, 3), (8, 4), (9, 3), (16, 4), (25, 2), (27, 2), (32, 2),
               (49, 2), (64, 2)]
# taken while GF(q) was still built from q^2 polynomial products; a change
# to the field layer has to keep every table byte-equal
DIGEST_GRID_SHA256 = "7a18438b4556d25266f4672c3cb6dd2023de0a3ecb532637aeb12dfb8ac4c918"


def test_field_tables_digest():
    h = hashlib.sha256()
    for q, m in DIGEST_GRID:
        fld = field_for(q, m)
        h.update(json.dumps(fld.to_spec()).encode())
        h.update(str(fld.alpha).encode())
        tables = [fld.exp_index, fld.log_index, fld.trace_vec] + ([fld.half_trace_vec] if m % 2 == 0 else [])
        for table in tables:
            h.update(table.dtype.str.encode())
            h.update(table.tobytes())
    assert h.hexdigest() == DIGEST_GRID_SHA256


def test_smallfield_gf9_squares():
    F9 = small_field(9)
    assert len(F9.squares) == 4
    sq = {F9.mul_el(a, a) for a in range(1, 9)}
    assert sq == F9.squares


@pytest.mark.parametrize("p,e,m", DESK_TOWERS)
def test_tables_equal_reference(p, e, m):
    ctx = build_field(p, e, m)
    alpha, exp, log, trace, half = reference_tables(p, e, m)
    assert ctx.alpha == alpha
    assert ctx.exp_index.dtype == ctx.log_index.dtype == ctx.trace_vec.dtype == np.int64
    assert ctx.exp_index.tobytes() == exp.tobytes()
    assert ctx.log_index.tobytes() == log.tobytes()
    assert ctx.trace_vec.tobytes() == trace.tobytes()
    if half is not None:
        assert ctx.half_trace_vec.tobytes() == half.tobytes()


def minimal_polynomial_of_alpha(ctx: FieldContext) -> list[int]:
    """prod_j (x - alpha^(q^j)) by schoolbook products and digit-wise sums,
    lowest coefficient first; every coefficient must lie in GF(q)."""
    count = ctx.e * ctx.m

    def add(x, y):
        return digitwise(ctx.p, count, x, y)

    def power(x, k):
        r = 1
        for _ in range(k):
            r = brute_mul(ctx, r, x)
        return r

    poly, root = [1], ctx.alpha
    for _ in range(ctx.m):
        minus_root = digitwise(ctx.p, count, root, sign=-1)
        shifted = [0] + poly
        poly = [add(shifted[k], brute_mul(ctx, minus_root, poly[k]) if k < len(poly) else 0)
                for k in range(len(shifted))]
        root = power(root, ctx.q)
    assert root == ctx.alpha and poly[-1] == 1
    assert all(c < ctx.q for c in poly)
    return poly


@pytest.mark.parametrize("p,e,m", DESK_TOWERS + [(2, 1, 20)])
def test_trace_vec_is_m_sequence_of_minimal_polynomial(p, e, m):
    """Tr(alpha^t) satisfies the linear recurrence whose characteristic
    polynomial is the minimal polynomial of alpha over GF(q)."""
    ctx = build_field(p, e, m)
    F, trv = ctx.base, ctx.trace_vec
    coeffs = minimal_polynomial_of_alpha(ctx)
    acc = np.zeros(ctx.n, dtype=np.int64)
    for b, c in enumerate(coeffs):
        acc = F.add[acc, F.mul[c, np.roll(trv, -b)]].astype(np.int64)
    assert not acc.any()
    assert trv.any()


def test_build_2_20_memory():
    tracemalloc.start()
    try:
        ctx = build_field(2, 1, 20)
        ctx.trace_vec
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 << 20


@pytest.mark.parametrize("q,m", [(2, 12), (3, 7), (5, 5), (4, 5), (9, 3)])
def test_scalar_add_neg_digitwise(q, m):
    ctx = field_for(q, m)
    count = ctx.e * ctx.m
    rng = np.random.default_rng(q * 100 + m)
    pairs = list(rng.integers(0, ctx.size, (300, 2))) + [(0, 0), (ctx.size - 1, ctx.size - 1), (0, ctx.size - 1)]
    for x, y in pairs:
        s = ctx.add(x, y)
        assert type(s) is int
        assert s == digitwise(ctx.p, count, int(x), int(y))
        assert ctx.neg(x) == digitwise(ctx.p, count, int(x), sign=-1)


@pytest.mark.parametrize("q,max_degree", [(2, 4), (3, 4), (4, 4), (5, 4), (7, 3), (8, 3), (9, 3), (16, 3)])
def test_berlekamp_test_equals_frobenius_criterion(q, max_degree):
    # every monic polynomial of each degree, roots included: the model's
    # nullity(Phi - 1) = 1 and Phi^m = 1 against the gcd criterion
    F = small_field(q)
    for degree in range(1, max_degree + 1):
        for code in range(q ** degree):
            f = gfarith.monic_poly_from_code(F, degree, code)
            assert gfarith.PolyBasis(F, tuple(f)).is_irreducible() == poly_is_irreducible(F, f), (q, f)


def unfiltered_smallest_irreducible(F, degree):
    """The search before the root filter: the Frobenius test on every
    candidate in code order."""
    for code in range(F.q ** degree):
        f = gfarith.monic_poly_from_code(F, degree, code)
        if poly_is_irreducible(F, f):
            return f


# the (q, m) of the acceptance sweep, the GF(p^e) base fields and the
# classify-form fields of the cli-cold benchmark
IRREDUCIBLE_GRID = sorted({(p.q, p.m) for p in theorem_sweep()}
                          | {(2, 2), (2, 3), (2, 4), (3, 2), (2, 19), (4, 9), (3, 11), (5, 7)})


@pytest.mark.parametrize("q,m", IRREDUCIBLE_GRID)
def test_smallest_irreducible_skips_only_reducible_candidates(q, m):
    F = small_field(q)
    assert gfarith.smallest_irreducible(F, m) == unfiltered_smallest_irreducible(F, m)
