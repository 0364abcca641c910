"""q-cyclotomic cosets modulo q^m-1, coset leaders, BCH dimensions.

Everything here is integer combinatorics on exponents; no field arithmetic.
Coset-leader sets are found by direct enumeration of every exponent's
leader (``_leader_table``), so the closed descriptions proved in the source
theory are checked against this module rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CountMismatch, DegenerateCode, IndexOutOfTheoremRange, OutOfRange
from .gfarith import prime_power


@dataclass(frozen=True)
class CosetInfo:
    s: int
    members: tuple[int, ...]
    leader: int
    size: int


@dataclass(frozen=True)
class CodeParams:
    """Parameters of the BCH code with Bose distance delta_i = (q-1)q^(m-1)-q^i-1."""

    q: int
    m: int
    i: int
    delta: int
    delta_i: int
    dimension: int
    bose_distance: int

    @property
    def length(self) -> int:
        return self.q ** self.m - 1


def q_adic(s: int, q: int, m: int) -> tuple[list[int], int]:
    """Base-q digits of s (length m, lowest first) and their digit sum."""
    if not 0 <= s < q ** m:
        raise OutOfRange(f"s={s} out of [0, q^m)")
    digits = []
    for _ in range(m):
        digits.append(s % q)
        s //= q
    return digits, sum(digits)


def cyclotomic_coset(s: int, q: int, m: int) -> CosetInfo:
    n = q ** m - 1
    if not 0 <= s < n:
        raise OutOfRange(f"s={s} out of [0, q^m-1)")
    members = [s]
    t = s * q % n
    while t != s:
        members.append(t)
        t = t * q % n
    return CosetInfo(s=s, members=tuple(sorted(members)), leader=min(members), size=len(members))


def is_coset_leader(s: int, q: int, m: int) -> bool:
    n = q ** m - 1
    t = s * q % n
    while t != s:
        if t < s:
            return False
        t = t * q % n
    return True


def _leader_table(q: int, m: int) -> np.ndarray:
    """lead[t] = min(C_t) for 0 <= t < q^m - 1: multiplying by q modulo
    q^m - 1 rotates the m base-q digits of t, so min(C_t) is the least rotation."""
    n = q ** m - 1
    top = q ** (m - 1)
    t = np.arange(n, dtype=np.int32 if n < 1 << 31 else np.int64)
    lead = t.copy()
    for _ in range(m - 1):
        high = t // top
        t -= high * top  # t % top, without numpy's slow integer modulo
        t *= q
        t += high
        np.minimum(lead, t, out=lead)
    return lead


def all_coset_leaders(q: int, m: int) -> list[tuple[int, int]]:
    """All (leader, coset size) pairs, ascending; a size counts the exponents led."""
    lead = _leader_table(q, m)
    leaders = np.flatnonzero(lead == np.arange(len(lead)))
    return list(zip(leaders.tolist(), np.bincount(lead)[leaders].tolist()))


def coset_leaders_geq(threshold: int, q: int, m: int) -> list[int]:
    """Sorted coset leaders >= threshold, by direct enumeration."""
    prime_power(q)
    if m < 1:
        raise OutOfRange(f"m={m} must be >= 1")
    n = q ** m - 1
    if not 1 <= threshold < n:
        raise OutOfRange(f"threshold={threshold} out of [1, q^m-1)")
    return [s for s, _ in all_coset_leaders(q, m) if s >= threshold]


def bch_dimension(q: int, m: int, delta: int) -> int:
    """Dimension = 1 + sum of |C_s| over coset leaders s >= delta."""
    n = q ** m - 1
    if not 2 <= delta <= n:
        raise OutOfRange(f"delta={delta} out of [2, q^m-1]")
    return 1 + int(np.count_nonzero(_leader_table(q, m) >= delta))


def bose_distance(q: int, m: int, delta: int) -> int:
    """Smallest positive integer outside the union of the cosets of 1..delta-1.

    That is the largest designed distance producing the same code: the
    first d >= delta whose coset leader is >= delta (n when there is none).
    """
    n = q ** m - 1
    if not 2 <= delta <= n:
        raise OutOfRange(f"delta={delta} out of [2, q^m-1]")
    free = np.flatnonzero(_leader_table(q, m)[delta:] >= delta)
    return delta + int(free[0]) if free.size else n


def theorem_i_range(q: int, m: int) -> range:
    """Integer i with (m-2)/2 <= i <= m - floor(m/3) - 1."""
    lo = (m - 1) // 2 if m % 2 else (m - 2) // 2
    hi = m - m // 3 - 1
    return range(lo, hi + 1)


def least_m(q: int) -> int:
    """The least m of the main theorem for q: 3 for q = 2, 2 for q = 3, else 1."""
    return {2: 3, 3: 2}.get(q, 1)


def closed_dimension(m: int, i: int) -> int:
    """The main theorem's dimension of C_(q,m,delta_i): (i-(m-5)/2)m+1."""
    return m * (2 * i - m + 5) // 2 + 1


def _check_qm(q: int, m: int) -> None:
    prime_power(q)
    if m < least_m(q):
        raise IndexOutOfTheoremRange(f"q={q} needs m >= {least_m(q)}")


def code_params(q: int, m: int, i: int) -> CodeParams:
    """Parameters of C_(q,m,delta_i) for i in the main-theorem range.

    The dimension comes from closed_dimension; when q^m is small enough to
    enumerate cosets, it is verified against the coset-size summation.
    """
    _check_qm(q, m)
    rng = theorem_i_range(q, m)
    if i not in rng:
        raise IndexOutOfTheoremRange(f"i={i} outside [{rng.start}, {rng.stop - 1}] for m={m}")
    delta = (q - 1) * q ** (m - 1) - 1
    delta_i = delta - q ** i
    if delta_i < 2:
        raise DegenerateCode(f"delta_i={delta_i} < 2 for (q,m,i)=({q},{m},{i})")
    dimension = closed_dimension(m, i)
    if q ** m <= 1 << 20:
        by_cosets = bch_dimension(q, m, delta_i)
        if by_cosets != dimension:
            raise CountMismatch(
                f"dimension mismatch for ({q},{m},{i}): closed form {dimension}, cosets {by_cosets}"
            )
    if not is_coset_leader(delta_i, q, m):
        raise CountMismatch(f"delta_i={delta_i} is not a coset leader for ({q},{m},{i})")
    return CodeParams(q=q, m=m, i=i, delta=delta, delta_i=delta_i,
                      dimension=dimension, bose_distance=delta_i)


def theorem_sweep(qs=(2, 3, 4, 5), max_codewords: int = 1 << 24) -> list[CodeParams]:
    """Every valid (q,m,i) of the main theorem with q^dimension within budget."""
    out = []
    for q in qs:
        over = 0
        for m in range(least_m(q), 200):
            # dimension at the smallest admissible i grows linearly in m
            # within each parity class, so two consecutive overruns end the scan
            if q ** closed_dimension(m, theorem_i_range(q, m).start) > max_codewords:
                over += 1
                if over >= 2:
                    break
                continue
            over = 0
            for i in theorem_i_range(q, m):
                if q ** closed_dimension(m, i) > max_codewords:
                    continue
                try:
                    out.append(code_params(q, m, i))
                except DegenerateCode:
                    continue
    return out
