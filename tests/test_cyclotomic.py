import random
import tracemalloc

import numpy as np
import pytest

from bchforms import cyclotomic as cyc
from bchforms.errors import (
    BudgetExceeded,
    CountMismatch,
    DegenerateCode,
    IndexOutOfTheoremRange,
    NotPrime,
    OutOfRange,
)


def test_q_adic_examples():
    assert cyc.q_adic(0, 3, 3) == ([0, 0, 0], 0)
    assert cyc.q_adic(23, 2, 5) == ([1, 1, 1, 0, 1], 4)
    assert cyc.q_adic(14, 3, 3) == ([2, 1, 1], 4)
    with pytest.raises(OutOfRange):
        cyc.q_adic(27, 3, 3)


def test_cyclotomic_coset_examples():
    c = cyc.cyclotomic_coset(0, 2, 4)
    assert c.members == (0,) and c.leader == 0 and c.size == 1
    c = cyc.cyclotomic_coset(7, 2, 4)
    assert set(c.members) == {7, 14, 13, 11} and c.leader == 7 and c.size == 4
    c = cyc.cyclotomic_coset(14, 3, 3)
    assert set(c.members) == {14, 16, 22} and c.leader == 14 and c.size == 3


def test_coset_partition_and_sizes():
    for q, m in [(2, 6), (3, 4), (4, 3), (5, 3), (2, 12)]:
        n = q ** m - 1
        leaders = cyc.all_coset_leaders(q, m)
        assert sum(size for _, size in leaders) == n
        for s, size in leaders:
            assert m % size == 0
            assert cyc.cyclotomic_coset(s, q, m).size == size


def test_leader_criterion_matches_min_of_orbit():
    for q, m in [(2, 6), (3, 3), (5, 2)]:
        n = q ** m - 1
        leaders = {s for s, _ in cyc.all_coset_leaders(q, m)}
        for s in range(n):
            assert cyc.is_coset_leader(s, q, m) == (s in leaders)


def test_is_coset_leader_refuses_s_outside_the_exponents():
    # a negative s never recurs in its orbit mod n, so the orbit walk would not end
    for s in (-5, 15, 16):
        with pytest.raises(OutOfRange):
            cyc.is_coset_leader(s, 2, 4)


def test_leader_criterion_via_digit_shifts():
    # s is a leader iff its digit sequence is <= all its cyclic shifts,
    # where sequences compare by the integer they encode
    for q, m in [(2, 5), (3, 3), (4, 2)]:
        n = q ** m - 1
        for s in range(n):
            digits, _ = cyc.q_adic(s, q, m)
            shifts = [
                sum(digits[(j + k) % m] * q ** j for j in range(m)) % n if s else 0
                for k in range(m)
            ]
            # shifting digits of s multiplies by q^k mod q^m-1
            assert set(shifts) <= set(cyc.cyclotomic_coset(s, q, m).members) | {s}
            digit_leader = all(s <= t for t in shifts)
            assert digit_leader == cyc.is_coset_leader(s, q, m), (q, m, s)


def test_coset_leaders_geq_examples():
    assert cyc.coset_leaders_geq(23, 2, 6) == [23, 27, 31]
    assert cyc.coset_leaders_geq(14, 3, 3) == [14, 17]


def test_coset_leaders_geq_top_of_range():
    # q^m - 2 is a coset leader iff its orbit minimum is itself
    for q, m in [(2, 4), (3, 3), (5, 2)]:
        n = q ** m - 1
        got = cyc.coset_leaders_geq(n - 1, q, m)
        expect = [n - 1] if cyc.is_coset_leader(n - 1, q, m) else []
        assert got == expect


def test_top_leader_set_closed_description():
    # the closed description {delta} u {delta_j : (m-2)/2 <= j <= i} must equal
    # the enumerated leader set >= delta_i for all theorem-range parameters
    for q in (2, 3, 4, 5):
        min_m = {2: 3, 3: 2}.get(q, 1)
        for m in range(min_m, 15):
            if q ** m > 1 << 14:
                continue
            delta = (q - 1) * q ** (m - 1) - 1
            for i in cyc.theorem_i_range(q, m):
                delta_i = delta - q ** i
                if delta_i < 2:
                    continue
                expected = sorted({delta} | {delta - q ** j for j in cyc.theorem_i_range(q, m) if j <= i})
                assert cyc.coset_leaders_geq(delta_i, q, m) == expected, (q, m, i)


def test_bch_dimension_examples():
    assert cyc.bch_dimension(3, 3, 14) == 7
    assert cyc.bch_dimension(2, 6, 27) == 10
    assert cyc.bch_dimension(2, 6, 23) == 16


def test_bose_distance_examples():
    assert cyc.bose_distance(3, 3, 14) == 14
    assert cyc.bose_distance(2, 4, 4) == 5
    for q, m in [(2, 4), (3, 3)]:
        n = q ** m - 1
        assert cyc.bose_distance(q, m, n) == n


def test_bose_distance_of_leader_is_itself():
    for q, m in [(2, 5), (3, 3), (4, 2)]:
        n = q ** m - 1
        for s in range(2, n):
            if cyc.is_coset_leader(s, q, m):
                assert cyc.bose_distance(q, m, s) == s


def test_code_params_examples():
    p = cyc.code_params(3, 4, 2)
    assert (p.delta_i, p.dimension) == (44, 11)
    p = cyc.code_params(2, 6, 2)
    assert (p.delta_i, p.dimension) == (27, 10)
    p = cyc.code_params(3, 3, 1)
    assert (p.delta_i, p.dimension) == (14, 7)
    assert p.bose_distance == 14 and p.length == 26


def test_code_params_errors():
    with pytest.raises(IndexOutOfTheoremRange):
        cyc.code_params(2, 6, 4)
    with pytest.raises(IndexOutOfTheoremRange):
        cyc.code_params(2, 2, 0)
    with pytest.raises(DegenerateCode):
        cyc.code_params(2, 3, 1)  # delta_1 = 1
    with pytest.raises(DegenerateCode):
        cyc.code_params(4, 1, 0)  # delta_0 = 1
    for q in (6, 1, 0):
        with pytest.raises(NotPrime):
            cyc.code_params(q, 3, 1)


def test_dimension_closed_form_matches_cosets_everywhere():
    for q in (2, 3, 4, 5):
        min_m = {2: 3, 3: 2}.get(q, 1)
        for m in range(min_m, 15):
            if q ** m > 1 << 14:
                continue
            for i in cyc.theorem_i_range(q, m):
                delta_i = (q - 1) * q ** (m - 1) - 1 - q ** i
                if delta_i < 2:
                    continue
                closed = m * (2 * i - m + 5) // 2 + 1
                assert cyc.bch_dimension(q, m, delta_i) == closed, (q, m, i)


def test_theorem_sweep_budget():
    sweep = cyc.theorem_sweep(max_codewords=1 << 24)
    keys = {(p.q, p.m, p.i) for p in sweep}
    assert (2, 6, 2) in keys and (2, 6, 3) in keys
    assert (3, 3, 1) in keys and (3, 4, 2) in keys
    assert (2, 14, 6) in keys and (5, 6, 2) in keys
    assert (2, 3, 1) not in keys  # degenerate
    for p in sweep:
        assert p.q ** p.dimension <= 1 << 24
    # a smaller budget gives a subset
    small = {(p.q, p.m, p.i) for p in cyc.theorem_sweep(max_codewords=1 << 16)}
    assert small < keys


def _all_coset_leaders_ref(q, m):
    """Reference: (leader, size) pairs by a linear scan with a visited bitmap."""
    n = q ** m - 1
    seen = np.zeros(n, dtype=bool)
    out = []
    for s in range(n):
        if seen[s]:
            continue
        t = s
        size = 0
        while True:
            seen[t] = True
            size += 1
            t = t * q % n
            if t == s:
                break
        out.append((s, size))
    return out


def _bose_distance_ref(q, m, delta):
    """Reference: mark the cosets of 1..delta-1, then walk up from delta."""
    n = q ** m - 1
    covered = np.zeros(n, dtype=bool)
    for s in range(1, delta):
        t = s
        while not covered[t]:
            covered[t] = True
            t = t * q % n
    d = delta
    while d < n and covered[d]:
        d += 1
    return d


LEADER_GRID = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16) for m in range(1, 17)
               if q ** m <= 1 << 16] + [(2, 20)]


@pytest.mark.parametrize("q,m", LEADER_GRID)
def test_leader_table_matches_loop_reference(q, m):
    n = q ** m - 1
    ref = _all_coset_leaders_ref(q, m)
    assert cyc.all_coset_leaders(q, m) == ref
    rng = random.Random(1000 * q + m)
    sampled = 6 if n < 1 << 16 else 1  # the reference walk is O(n) per delta
    deltas = range(2, n + 1) if n <= 256 else sorted({2, n, *(rng.randint(2, n) for _ in range(sampled))})
    for delta in deltas:
        assert cyc.bose_distance(q, m, delta) == _bose_distance_ref(q, m, delta), delta
        assert cyc.bch_dimension(q, m, delta) == 1 + sum(size for s, size in ref if s >= delta), delta
        if delta < n:
            assert cyc.coset_leaders_geq(delta, q, m) == [s for s, _ in ref if s >= delta], delta


@pytest.mark.parametrize("q,m", [(q, m) for q, m in LEADER_GRID if q ** m <= 1 << 9])
def test_leader_walk_from_every_threshold(q, m):
    n = q ** m - 1
    ref = _all_coset_leaders_ref(q, m)
    for threshold in range(n + 1):
        assert list(cyc.iter_coset_leaders(q, m, threshold)) == [c for c in ref if c[0] >= threshold]


def test_leader_walk_refuses_past_its_node_cap(monkeypatch):
    # a whole walk of GF(2^40) would visit about 2^40/40 prenecklaces
    monkeypatch.setattr(cyc, "MAX_LEADER_NODES", 1000)
    with pytest.raises(BudgetExceeded, match="more than 1000 prenecklaces"):
        cyc.bch_dimension(2, 40, 3)
    # a walk that stops at its first leader visits one prenecklace
    assert cyc.bose_distance(2, 40, 3) == 3


@pytest.mark.parametrize("call", [
    lambda q, m: cyc.q_adic(0, q, m),
    lambda q, m: cyc.cyclotomic_coset(0, q, m),
    lambda q, m: cyc.is_coset_leader(1, q, m),
    lambda q, m: list(cyc.iter_coset_leaders(q, m)),
    lambda q, m: cyc.all_coset_leaders(q, m),
    lambda q, m: cyc.coset_leaders_geq(1, q, m),
    lambda q, m: cyc.bch_dimension(q, m, 5),
    lambda q, m: cyc.bose_distance(q, m, 5),
    lambda q, m: cyc.theorem_i_range(q, m),
])
def test_public_entries_check_q_and_m(call):
    for q in (6, 1, 0):
        with pytest.raises(NotPrime):
            call(q, 3)
    for m in (0, -1):
        with pytest.raises(OutOfRange):
            call(2, m)


def test_code_params_checks_every_code_up_to_the_m_bound():
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        for m in range(cyc.least_m(q), cyc.MAX_CHECKED_M + 1):
            for i in cyc.theorem_i_range(q, m):
                if (q - 1) * q ** (m - 1) - 1 - q ** i < 2:
                    continue
                cyc.code_params(q, m, i)  # raises CountMismatch on a wrong figure


@pytest.mark.parametrize("q,m,i", [(2, 24, 11), (16, cyc.MAX_CHECKED_M, cyc.MAX_CHECKED_M // 2)])
def test_code_params_catches_a_wrong_closed_dimension(monkeypatch, q, m, i):
    closed = cyc.closed_dimension
    monkeypatch.setattr(cyc, "closed_dimension", lambda m, i: closed(m, i) + 1)
    with pytest.raises(CountMismatch, match="dimension mismatch"):
        cyc.code_params(q, m, i)


def test_code_params_catches_a_delta_i_that_is_no_leader(monkeypatch):
    monkeypatch.setattr(cyc, "is_coset_leader", lambda s, q, m: False)
    with pytest.raises(CountMismatch, match="not a coset leader"):
        cyc.code_params(2, 24, 11)


def test_code_params_memory_peak():
    tracemalloc.start()
    try:
        cyc.code_params(2, 20, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
