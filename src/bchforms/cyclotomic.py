"""q-cyclotomic cosets modulo q^m-1, coset leaders, BCH dimensions.

Everything here is integer combinatorics on exponents; no field arithmetic.
Coset leaders are the necklaces of m base-q digits. One walk,
``iter_coset_leaders``, generates them in increasing order by the FKM
algorithm, starting at a threshold, and yields each leader with its coset
size. Every leader set, dimension and Bose distance here reads that walk,
so the closed descriptions proved in the source theory are checked against
exhaustive enumeration rather than trusted. Its work depends on the leaders
at or above the threshold, not on q^m: code_params checks codes up to
m = MAX_CHECKED_M, and no walk visits more than MAX_LEADER_NODES
prenecklaces.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import BudgetExceeded, CountMismatch, DegenerateCode, IndexOutOfTheoremRange, OutOfRange
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


def _check_args(q: int, m: int) -> None:
    prime_power(q)
    if m < 1:
        raise OutOfRange(f"m={m} must be >= 1")


def q_adic(s: int, q: int, m: int) -> tuple[list[int], int]:
    """Base-q digits of s (length m, lowest first) and their digit sum."""
    _check_args(q, m)
    if not 0 <= s < q ** m:
        raise OutOfRange(f"s={s} out of [0, q^m)")
    digits = []
    for _ in range(m):
        digits.append(s % q)
        s //= q
    return digits, sum(digits)


def cyclotomic_coset(s: int, q: int, m: int) -> CosetInfo:
    _check_args(q, m)
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
    _check_args(q, m)
    n = q ** m - 1
    if not 0 <= s < n:
        raise OutOfRange(f"s={s} out of [0, q^m-1)")
    t = s * q % n
    while t != s:
        if t < s:
            return False
        t = t * q % n
    return True


# A walk visits at most q^m - 1 prenecklaces, so this cap admits a whole walk
# of any field within the default 2^20 field budget.
MAX_LEADER_NODES = 1 << 20


def iter_coset_leaders(q: int, m: int, threshold: int = 0) -> Iterator[tuple[int, int]]:
    """(leader, coset size) for every coset leader >= threshold, ascending.

    Multiplying by q modulo q^m - 1 rotates the m base-q digits of an
    exponent. Read most significant digit first, a leader is a necklace
    (no greater than any of its rotations) and its coset size is the
    necklace's period. The FKM algorithm (Ruskey, Savage & Wang, J.
    Algorithms 1992) walks the prenecklaces in increasing order at constant
    amortized cost; a prenecklace whose period p divides m is a necklace.
    The walk starts at the least prenecklace >= threshold, so no prefix
    below the threshold's digits is visited, and a caller that stops early
    pays only for the leaders it read. Past MAX_LEADER_NODES prenecklaces
    the walk raises BudgetExceeded.
    """
    _check_args(q, m)
    n = q ** m - 1
    if not 0 <= threshold <= n:
        raise OutOfRange(f"threshold={threshold} out of [0, q^m-1]")
    a = [0] * (m + 1)  # a[1..m]: the digits, most significant first; a[0] = 0
    rest = threshold
    for j in range(m, 0, -1):
        rest, a[j] = divmod(rest, q)
    # the least prenecklace >= threshold keeps its digits while they form a
    # prenecklace; at the first digit below a[t - p] it extends periodically
    p = 1
    for t in range(1, m + 1):
        if a[t] > a[t - p]:
            p = t
        elif a[t] < a[t - p]:
            for j in range(t, m + 1):
                a[j] = a[j - p]
            break
    val = [0] * (m + 1)  # val[t]: the integer with digits a[1..t]
    for j in range(1, m + 1):
        val[j] = val[j - 1] * q + a[j]
    nodes = 0
    while val[m] != n:  # (q-1)^m is n, the exponent 0 again
        nodes += 1
        if nodes > MAX_LEADER_NODES:
            raise BudgetExceeded(
                f"coset leaders of q={q}, m={m} need a walk of more than "
                f"{MAX_LEADER_NODES} prenecklaces, the cap"
            )
        if m % p == 0:
            yield val[m], p
        # the next prenecklace: raise the last digit below q-1, then repeat
        # the new prefix periodically
        t = m
        while a[t] == q - 1:
            t -= 1
        a[t] += 1
        val[t] += 1
        p = t
        for j in range(t + 1, m + 1):
            a[j] = a[j - t]
            val[j] = val[j - 1] * q + a[j]


def all_coset_leaders(q: int, m: int) -> list[tuple[int, int]]:
    """All (leader, coset size) pairs, ascending; a size counts the exponents led."""
    return list(iter_coset_leaders(q, m))


def coset_leaders_geq(threshold: int, q: int, m: int) -> list[int]:
    """Sorted coset leaders >= threshold, by direct enumeration."""
    _check_args(q, m)
    n = q ** m - 1
    if not 1 <= threshold < n:
        raise OutOfRange(f"threshold={threshold} out of [1, q^m-1)")
    return [s for s, _ in iter_coset_leaders(q, m, threshold)]


def _check_delta(q: int, m: int, delta: int) -> None:
    _check_args(q, m)
    if not 2 <= delta <= q ** m - 1:
        raise OutOfRange(f"delta={delta} out of [2, q^m-1]")


def bch_dimension(q: int, m: int, delta: int) -> int:
    """Dimension = 1 + sum of |C_s| over coset leaders s >= delta."""
    _check_delta(q, m, delta)
    return 1 + sum(size for _, size in iter_coset_leaders(q, m, delta))


def bose_distance(q: int, m: int, delta: int) -> int:
    """Smallest positive integer outside the union of the cosets of 1..delta-1.

    That is the largest designed distance producing the same code: the
    first leader >= delta (n when there is none), since the first d >= delta
    whose coset leader is >= delta is that leader itself.
    """
    _check_delta(q, m, delta)
    return next((s for s, _ in iter_coset_leaders(q, m, delta)), q ** m - 1)


def theorem_i_range(q: int, m: int) -> range:
    """Integer i with (m-2)/2 <= i <= m - floor(m/3) - 1."""
    _check_args(q, m)
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


# code_params checks the closed dimension by a leader walk for
# m <= MAX_CHECKED_M. From delta_i at the top i the walk visits about
# m^2/35 prenecklaces, each O(m) digit work on m-digit integers, so its time
# grows as about m^3. Measured on 2 vCPUs: the costliest code up to m = 72,
# (8,71,47), took 0.75 ms; (2,400,266) took 41-52 ms and (2,1600,1066)
# 3.2-3.8 s. At this bound the 4,122 in-range codes for q in
# {2,3,4,5,7,8,9,16} check in about 0.8 s. Past it only the Bose distance
# (delta_i being a coset leader) is checked.
MAX_CHECKED_M = 72


def code_params(q: int, m: int, i: int) -> CodeParams:
    """Parameters of C_(q,m,delta_i) for i in the main-theorem range.

    The dimension comes from closed_dimension; for m <= MAX_CHECKED_M it is
    verified against bch_dimension. The Bose distance is delta_i, checked to
    be a coset leader: the first leader >= delta_i is delta_i itself.
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
    if m <= MAX_CHECKED_M:
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
