"""Test references for the field layer.

The list-polynomial arithmetic and the Frobenius irreducibility criterion
that ``gfarith`` used before its polynomial-basis model, kept to check the
model's Berlekamp test and the generator polynomials against, and powers
in GF(q^m) read off the exp/log tables.
"""

from bchforms.gfarith import FieldContext, SmallField, factorize, poly_mul, poly_trim


def poly_deg(c: list[int]) -> int:
    return len(c) - 1


def poly_add(F: SmallField, a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = F.add_el(x, y)
    return poly_trim(out)


def poly_mod(F: SmallField, a: list[int], b: list[int]) -> list[int]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    inv_lead = F.inv_el(b[-1])
    while len(r) >= len(b):
        c = F.mul_el(r[-1], inv_lead)
        d = len(r) - len(b)
        for i, y in enumerate(b):
            r[d + i] = F.add_el(r[d + i], F.neg_el(F.mul_el(c, y)))
        poly_trim(r)
    return r


def poly_gcd(F: SmallField, a: list[int], b: list[int]) -> list[int]:
    """A gcd of a and b, up to a unit factor (not normalized to monic)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, poly_mod(F, a, b)
    return a


def poly_powmod(F: SmallField, a: list[int], k: int, mod: list[int]) -> list[int]:
    result = [1]
    base = poly_mod(F, a, mod)
    while k:
        if k & 1:
            result = poly_mod(F, poly_mul(F, result, base), mod)
        base = poly_mod(F, poly_mul(F, base, base), mod)
        k >>= 1
    return result


def poly_is_irreducible(F: SmallField, f: list[int]) -> bool:
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


def power(fld: FieldContext, x: int, k: int) -> int:
    """x^k in GF(q^m) (any integer k for a unit x), from the exp/log tables."""
    if x == 0:
        return 0 if k > 0 else 1
    return int(fld.exp_index[int(fld.log_index[x]) * k % fld.n])


def frob(fld: FieldContext, x: int) -> int:
    """x^q."""
    return power(fld, x, fld.q)
