import ast
import contextlib
import functools
import io
import json
import os
import hashlib
import re
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bchforms
from bchforms import cli, forms, gfarith, kernels, oracle, schemes, weights
from bchforms.bchcode import generator_polynomial
from bchforms.cyclotomic import code_params, coset_leaders_geq
from bchforms.errors import OutOfRange
from bchforms.schemes import FamilySpec, census_inner_distribution, dg_bound
from bchforms.weights import appendix_frequency_tables, code_enumerator_odd
from bchforms.forms import RankType


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_params_payload_matches_library(capsys):
    code, doc = run_cli(capsys, "params", "-q", "3", "-m", "3", "-i", "1")
    assert code == 0
    p = code_params(3, 3, 1)
    assert doc["payload"] == {
        "q": 3, "m": 3, "i": 1, "length": 26, "delta": 17, "delta_i": 14,
        "dimension": p.dimension, "bose": p.bose_distance,
    }
    assert doc["payload"]["dimension"] == 7


def test_params_error_exit_code(capsys):
    code, doc = run_cli(capsys, "params", "-q", "2", "-m", "6", "-i", "4")
    assert code == 1
    assert doc["error"] == "IndexOutOfTheoremRange"


def test_params_degenerate(capsys):
    code, doc = run_cli(capsys, "params", "-q", "2", "-m", "3", "-i", "1")
    assert code == 1 and doc["error"] == "DegenerateCode"


def test_coset_leaders(capsys):
    code, doc = run_cli(capsys, "coset-leaders", "-q", "2", "-m", "6", "--threshold", "23")
    assert code == 0
    assert doc["payload"]["leaders"] == coset_leaders_geq(23, 2, 6) == [23, 27, 31]


def test_genpoly(capsys):
    code, doc = run_cli(capsys, "genpoly", "-q", "3", "-m", "3", "--delta", "14")
    assert code == 0
    lib = generator_polynomial(3, 3, 14).to_json()
    assert doc["payload"] == lib
    assert doc["payload"]["dimension"] == 7
    assert doc["payload"]["field"]["p"] == 3


def test_enumerator_closed(capsys):
    code, doc = run_cli(capsys, "enumerator", "-q", "3", "-m", "3", "-i", "1", "--mode", "closed")
    assert code == 0
    lib = code_enumerator_odd(code_params(3, 3, 1))
    assert doc["payload"]["closed"] == {
        "length": 26, "counts": {str(w): str(c) for w, c in sorted(lib.counts.items())},
    }
    assert doc["payload"]["closed"]["counts"]["14"] == "390"


def test_enumerator_both_match(capsys):
    code, doc = run_cli(capsys, "enumerator", "-q", "3", "-m", "3", "-i", "1", "--mode", "both")
    assert code == 0
    assert doc["payload"]["match"] is True


def test_enumerator_even_oracle(capsys):
    code, doc = run_cli(capsys, "enumerator", "-q", "2", "-m", "6", "-i", "2", "--mode", "both")
    assert code == 0
    assert doc["payload"]["oracle_min_distance"] == 27
    assert doc["payload"]["closed"]["min_distance"] == 27
    assert doc["payload"]["match"] is True


def test_classify_form(capsys):
    code, doc = run_cli(capsys, "classify-form", "-q", "3", "-m", "3", "-i", "1", "--lambdas", "1")
    assert code == 0
    assert doc["payload"]["rank"] == 3
    assert doc["payload"]["type"] in (1, -1)
    assert len(doc["payload"]["gram"]) == 3


def test_classify_form_one_member_family(capsys):
    # i = 0 at m = 3 has no slots: its one member is the zero form
    code, doc = run_cli(capsys, "classify-form", "-q", "3", "-m", "3", "-i", "0", "--lambdas", ",")
    assert code == 0
    assert doc["payload"] == {"lambdas": [], "rank": 0, "type": 1, "gram": [[0] * 3] * 3}


def test_inner_dist_both(capsys):
    code, doc = run_cli(
        capsys, "inner-dist", "--family", "S1", "-q", "3", "-m", "3", "-i", "1", "--method", "both"
    )
    assert code == 0
    lib = census_inner_distribution(FamilySpec("S1", 3, 3, 1))
    assert doc["payload"]["census"] == {f"{r},{t}": str(c) for (r, t), c in sorted(lib.entries.items())}
    assert list(doc["payload"]["census"]) == ["0,1", "3,-1", "3,1"]
    assert doc["payload"]["match"] is True


def test_dg_bound(capsys):
    code, doc = run_cli(capsys, "dg-bound", "-n", "5", "-d", "2", "-q", "2")
    assert code == 0
    assert doc["payload"]["bound"] == str(dg_bound(5, 2, 2)) == "32"


def test_design_check(capsys):
    code, doc = run_cli(
        capsys, "design-check", "--family", "S1", "-q", "3", "-m", "3", "-i", "1", "-t", "2"
    )
    assert code == 0
    assert doc["payload"]["is_design"] is True


def test_appendix_table(capsys):
    code, doc = run_cli(
        capsys, "appendix-table", "-q", "2", "-m", "3", "--rank", "3", "--type", "1",
        "--c-class", "zero",
    )
    assert code == 0
    lib = appendix_frequency_tables(2, 3, RankType(3, 1), "zero")
    assert doc["payload"]["closed"] == {str(k): str(v) for k, v in sorted(lib.items())}
    assert doc["payload"]["match"] is True


def test_verify_suite(capsys):
    code, doc = run_cli(capsys, "verify", "schemes", "--q", "3", "--m", "3", "--i", "1")
    assert code == 0
    assert doc["payload"]["failed"] == 0
    assert doc["payload"]["passed"] > 0


@pytest.mark.parametrize("argv", [
    ("verify", "schemes", "--q", "3"),
    ("verify", "examples", "--q", "3", "--budget", "small"),
])
def test_verify_q_filters_every_check(capsys, argv):
    # every check a --q 3 run makes is a q = 3 check: its name gives q as
    # "q=3" or as the first of (q,m,i), and only the design negative control
    # (on S1(3,3,1)) names no q
    code, doc = run_cli(capsys, *argv)
    assert code == 0
    names = [c["name"] for c in doc["payload"]["checks"]]
    assert names
    for name in names:
        qs = re.findall(r"q=(\d+)|\((\d+),\d+,\d+\)", name)
        assert {a or b for a, b in qs} == ({"3"} if name != "2-design negative control" else set()), name


def test_verify_small_budget(capsys):
    code, doc = run_cli(capsys, "verify", "examples", "--budget", "small")
    assert code == 0
    assert doc["payload"]["failed"] == 0


# valid calls whose exact counts have more decimal digits than Python's
# int-to-str limit (4300 by default)
LONG_COUNTS = [
    ("dg-bound", "-n", "200", "-d", "1", "-q", "2"),
    ("params", "-q", "2", "-m", "15000", "-i", "7499"),
    ("appendix-table", "-q", "2", "-m", "15000", "--rank", "1", "--type", "1", "--c-class", "zero",
     "--no-oracle"),
    *(REFUSED_FROM_EXPONENT := [
        # refused before the closed counts (over 100 s) or the family size
        # (8 s for 3^13510501) are computed
        ("enumerator", "-q", "3", "-m", "2001", "-i", "1333", "--mode", "closed"),
        ("inner-dist", "--family", "S1", "-q", "3", "-m", "9001", "-i", "6000", "--method", "closed"),
    ]),
]


@pytest.mark.parametrize("argv", [
    ("classify-form", "-q", "3", "-m", "3", "-i", "1", "--lambdas", "-1"),
    ("classify-form", "-q", "3", "-m", "3", "-i", "1", "--lambdas", "99999"),
    ("classify-form", "-q", "3", "-m", "3", "-i", "1", "--lambdas", "27"),
    ("params", "-q", "6", "-m", "3", "-i", "1"),
    ("enumerator", "-q", "3", "-m", "3", "-i", "1", "--mode", "oracle", "--budget", "foo"),
    ("verify", "examples", "--budget", "-1"),
    ("dg-bound", "-n", "7", "-d", "9", "-q", "2"),
    ("appendix-table", "-q", "5", "-m", "4", "--rank", "9", "--type", "1", "--c-class", "nonzero-sum"),
    ("appendix-table", "-q", "5", "-m", "4", "--rank", "2", "--type", "5", "--c-class", "zero"),
    ("appendix-table", "-q", "4", "-m", "4", "--rank", "2", "--type", "1", "--c-class", "zero"),
    ("appendix-table", "-q", "5", "-m", "4", "--rank", "0", "--type", "5", "--c-class", "zero"),
    ("appendix-table", "-q", "5", "-m", "4", "--rank", "2", "--type", "1", "--c-class", "nonzero"),
    ("classify-form", "-q", "3", "-m", "3", "-i", "1", "--lambdas", "abc"),
    ("dg-bound", "-n", "0", "-d", "0", "-q", "0"),
    ("coset-leaders", "-q", "6", "-m", "3", "--threshold", "5"),
    ("coset-leaders", "-q", "0", "-m", "-1", "--threshold", "5"),
    ("inner-dist", "--family", "A1", "-q", "2", "-m", "5", "-i", "2", "--method", "closed"),
    ("inner-dist", "--family", "S1", "-q", "0", "-m", "-1", "-i", "-1", "--method", "closed"),
    ("inner-dist", "--family", "A1", "-q", "2", "-m", "3", "-i", "3", "--method", "census"),
    ("design-check", "--family", "S1", "-q", "3", "-m", "3", "-i", "1", "-t", "-1"),
    ("design-check", "--family", "S1", "-q", "3", "-m", "3", "-i", "1", "-t", "4"),
    *LONG_COUNTS,
    # (m, i) with no family: slots past j = m, and a negative family exponent
    ("classify-form", "-q", "2", "-m", "4", "-i", "9", "--lambdas", "1,0,0,0,0,0,0,0,0"),
    ("classify-form", "-q", "3", "-m", "3", "-i", "-5", "--lambdas", ","),
    # fewer than one worker thread
    ("enumerator", "-q", "3", "-m", "3", "-i", "1", "--mode", "oracle", "--workers", "0"),
    ("enumerator", "-q", "3", "-m", "3", "-i", "1", "--mode", "oracle", "--workers", "-1"),
    ("verify", "examples", "--workers", "0"),
    ("verify", "schemes", "--q", "3", "--workers", "0"),
    ("verify", "forms", "--workers", "-3"),
    ("enumerator", "-q", "3", "-m", "3", "-i", "1", "--mode", "closed", "--workers", "0"),
])
def test_bad_input_is_one_json_error(capsys, argv):
    t0 = time.perf_counter()
    code, doc = run_cli(capsys, *argv)
    if argv in REFUSED_FROM_EXPONENT:
        assert time.perf_counter() - t0 < 2.0
    assert code == 1
    assert set(doc) == {"command", "error", "message"}
    assert doc["error"] in ("OutOfRange", "NotPrime")


BIG_PRIME = str(2 ** 61 - 1)


@pytest.mark.parametrize("argv", [
    # GF(q) above 256: the uint8 field tables are refused before they are built
    ("classify-form", "-q", "257", "-m", "1", "-i", "0", "--lambdas", "3"),
    ("classify-form", "-q", "512", "-m", "1", "-i", "0", "--lambdas", "3"),
    ("enumerator", "-q", "257", "-m", "1", "-i", "0", "--mode", "closed"),
    ("genpoly", "-q", "257", "-m", "1", "--delta", "3"),
    ("appendix-table", "-q", "257", "-m", "1", "--rank", "1", "--type", "1", "--c-class", "zero",
     "--no-oracle"),
    ("inner-dist", "--family", "S1", "-q", "257", "-m", "1", "-i", "0", "--method", "closed"),
    # q above 2^32 is refused before it is factored
    ("params", "-q", BIG_PRIME, "-m", "1", "-i", "0"),
    ("dg-bound", "-n", "3", "-d", "1", "-q", BIG_PRIME),
    ("verify", "cosets", "--q", BIG_PRIME),
])
def test_oversized_q_is_one_out_of_range_error(capsys, argv):
    t0 = time.perf_counter()
    code, doc = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert set(doc) == {"command", "error", "message"}
    assert doc["error"] == "OutOfRange"


def test_count_refuses_exactly_past_the_digit_limit(monkeypatch):
    # the refusal compares with 10^limit, names the limit and never
    # converts the count (LONG_COUNTS are the CLI calls that reach it)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5, raising=False)
    for n in (0, 99999, -99999, 2 ** 15):
        assert cli._count(n) == n
    for n in (10 ** 5, -10 ** 5, 2 ** 17, 10 ** 5000):
        with pytest.raises(OutOfRange, match="more than 5 decimal digits"):
            cli._count(n)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)  # no limit
    assert cli._count(10 ** 5000) == 10 ** 5000


def test_check_power_refuses_exactly_past_the_digit_limit(monkeypatch):
    # q^e / parts >= 10^limit, decided exactly on both sides of the limit
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5, raising=False)
    for q, e, parts in ((3, 10, 1), (2, 16, 1), (3, 12, 7), (5, 7, 1), (3, 15, 3 ** 5 + 1)):
        cli._check_power(q, e, parts)
        with pytest.raises(OutOfRange, match="more than 5 decimal digits"):
            cli._check_power(q, e + 1, parts)
    with pytest.raises(OutOfRange):
        cli._check_power(3, 10 ** 9)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)  # no limit
    cli._check_power(3, 10 ** 9)


@pytest.mark.parametrize("argv", [
    ("enumerator", "-q", "3", "-m", "5", "-i", "3", "--mode", "closed"),
    ("enumerator", "-q", "5", "-m", "4", "-i", "2", "--mode", "closed"),
    ("enumerator", "-q", "3", "-m", "7", "-i", "4", "--mode", "closed"),
    ("inner-dist", "--family", "S1", "-q", "3", "-m", "5", "-i", "3", "--method", "closed"),
    ("inner-dist", "--family", "S2", "-q", "5", "-m", "4", "-i", "3", "--method", "closed"),
])
def test_early_refusal_only_where_a_count_is_refused(capsys, monkeypatch, argv):
    # at every digit limit, the output is the one the command gives when
    # it computes every count and lets _count refuse
    check_power, fired = cli._check_power, []

    def early_check(*a):
        try:
            check_power(*a)
        except OutOfRange:
            fired.append(a)
            raise

    def run(limit, check):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
        monkeypatch.setattr(cli, "_check_power", check)
        code, doc = run_cli(capsys, *argv)
        doc.pop("elapsed_ms", None)
        return code, doc

    refused = 0
    for limit in range(1, 16):
        early = run(limit, early_check)
        assert early == run(limit, lambda *a: None), limit
        refused += early[0] == 1
    assert 0 < len(fired) <= refused < 15


def test_classify_form_reads_no_field_table(capsys, monkeypatch):
    # rank, type and Gram come from the extension modulus alone: the call
    # leaves the log, exp and trace tables of GF(2^19) unbuilt and holds no
    # array of q^m entries (those alone are 4 MB of int64 at 2^19)
    built = []

    def fresh_field(q, m):
        built.append(gfarith.build_field(*gfarith.prime_power(q), m))
        return built[-1]

    monkeypatch.setattr(cli, "field_for", fresh_field)
    monkeypatch.delenv("BCHFORMS_BUDGET", raising=False)
    forms.trace_tensor.cache_clear()
    gfarith.poly_basis.cache_clear()
    tracemalloc.start()
    try:
        code, doc = run_cli(capsys, "classify-form", "-q", "2", "-m", "19", "-i", "9", "--lambdas", "70446")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(built) == 1
    fld = built[0]
    assert [fld._alpha, fld._exp_index, fld._log_index, fld._trace_vec, fld._half_trace_vec] == [None] * 5
    assert peak <= 4 << 20, peak
    # the payload of the route that evaluated Q at all 2^19 points
    payload = doc["payload"]
    assert (payload["rank"], payload["type"]) == (19, 1)
    assert hashlib.sha256(json.dumps(payload["gram"]).encode()).hexdigest() == (
        "a40eea874c8b0d49c063819a8d5c59ca076ac74db6869a505a2c67228baa4969")


def test_classify_form_field_budget(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "field_for", lambda q, m: built.append((q, m)))
    monkeypatch.setenv("BCHFORMS_BUDGET", "small")
    code, doc = run_cli(capsys, "classify-form", "-q", "2", "-m", "13", "-i", "6", "--lambdas", "1")
    assert code == 1
    assert doc["error"] == "BudgetExceeded"
    assert built == []


@pytest.mark.parametrize("argv,worker", [
    (("coset-leaders", "-q", "2", "-m", "26", "--threshold", "3"), "coset_leaders_geq"),
    (("genpoly", "-q", "2", "-m", "24", "--delta", "5"), "generator_polynomial"),
])
def test_field_budget_before_work(capsys, monkeypatch, argv, worker):
    # GF(2^24) and GF(2^26) exceed the default 2^20 field budget
    called = []
    target = cli.cyc if worker == "coset_leaders_geq" else cli
    monkeypatch.setattr(target, worker, lambda *a: called.append(a))
    monkeypatch.delenv("BCHFORMS_BUDGET", raising=False)
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert set(doc) == {"command", "error", "message"}
    assert doc["error"] == "BudgetExceeded"
    assert called == []


@pytest.mark.parametrize("argv", [
    ("inner-dist", "--family", "Q2", "-q", "9", "-m", "4", "-i", "2", "--method", "census"),
    ("inner-dist", "--family", "S2", "-q", "9", "-m", "4", "-i", "2", "--method", "both"),
    ("design-check", "--family", "S2", "-q", "9", "-m", "4", "-i", "2", "-t", "2"),
])
def test_family_census_budget(capsys, monkeypatch, argv):
    # 9^6 members: refused before any member is enumerated, that is before
    # enumerate_family builds the field
    built = []
    monkeypatch.setattr(schemes, "field_for", lambda *a: built.append(a))
    monkeypatch.setenv("BCHFORMS_BUDGET", "small")
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert doc["error"] == "BudgetExceeded"
    assert built == []


def test_verify_schemes_budget(capsys, monkeypatch):
    # the same rule as inner-dist: GF(9^4) and 9^6 members exceed the small
    # budget, and the refusal is an error of the run, not a failed check
    built = []
    monkeypatch.setattr(schemes, "field_for", lambda *a: built.append(a))
    code, doc = run_cli(capsys, "verify", "schemes", "--q", "9", "--m", "4", "--i", "2", "--budget", "small")
    assert code == 1
    assert set(doc) == {"command", "error", "message"}
    assert doc["error"] == "BudgetExceeded"
    assert built == []


@pytest.mark.parametrize("argv,env", [
    (("enumerator", "-q", "4", "-m", "9", "-i", "4", "--mode", "closed", "--budget", "small"), None),
    (("enumerator", "-q", "2", "-m", "15", "-i", "7", "--mode", "closed"), "small"),
])
def test_even_closed_enumerator_budget(capsys, monkeypatch, argv, env):
    # the even-q certificate scans its family under the budget of every
    # other family scan: GF(4^9) and GF(2^15) exceed the small field cap
    classified = []
    monkeypatch.setattr(weights, "classify_quadratic", lambda form: classified.append(form))
    if env:
        monkeypatch.setenv("BCHFORMS_BUDGET", env)
    else:
        monkeypatch.delenv("BCHFORMS_BUDGET", raising=False)
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert set(doc) == {"command", "error", "message"}
    assert doc["error"] == "BudgetExceeded"
    assert classified == []


def test_enumerator_oracle_member_cap(capsys, monkeypatch):
    # 2^36 codewords fit this budget, but the 2^21 cosets exceed the family
    # scan limit: the trace route refuses before its first kernel call
    def no_kernel(*args):
        raise RuntimeError("eval_qvec reached")

    monkeypatch.setattr(kernels, "eval_qvec", no_kernel)
    code, doc = run_cli(capsys, "enumerator", "-q", "2", "-m", "14", "-i", "7",
                        "--mode", "oracle", "--budget", "68719476736")
    assert code == 1
    assert set(doc) == {"command", "error", "message"}
    assert doc["error"] == "BudgetExceeded"
    assert "family scan limit" in doc["message"]


@pytest.mark.parametrize("budget,runs", [("100", False), ("small", True)])
def test_verify_examples_budget(capsys, monkeypatch, budget, runs):
    # the route agreement enumerates the 2^7 codewords of (2,4,1) by both
    # routes, so, like every other example, it runs only if they fit
    calls = []
    for name in ("trace_route_weights", "generator_route_weights"):
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    code, doc = run_cli(capsys, "verify", "examples", "--budget", budget)
    assert ("generator_route_weights" in calls) == runs
    assert bool(calls) == runs
    if runs:
        assert code == 0
        assert doc["payload"]["failed"] == 0
        assert "route-agreement (2,4,1)" in [c["name"] for c in doc["payload"]["checks"]]
    else:
        # no example fits 100 codewords, and a run that checked nothing fails
        assert code == 1
        assert doc["error"] == "OutOfRange"


@pytest.mark.parametrize("argv", [
    ("verify", "examples", "--budget", "100"),
    ("verify", "appendix", "--q", "2", "--max-m", "1", "--budget", "1"),
])
def test_verify_with_no_check_is_an_error(capsys, argv):
    # every case is over the budget or outside the range: exit 0 would pass
    # a run that verified nothing
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert set(doc) == {"command", "error", "message"}
    assert doc["error"] == "OutOfRange"
    assert f"verify {argv[1]}" in doc["message"]


@pytest.mark.parametrize("argv,error", [
    (("verify", "cosets", "--q", "0", "--max-m", "3"), "NotPrime"),
    (("verify", "schemes", "--q", "0"), "NotPrime"),
    (("verify", "schemes", "--q", "3", "--m", "0", "--i", "0"), "OutOfRange"),
    (("verify", "cosets", "--q", "2", "--max-m", "0"), "OutOfRange"),
])
def test_verify_reads_zero_as_given(capsys, argv, error):
    # 0 is a value, not "not given": the run refuses it instead of
    # checking every default case
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert set(doc) == {"command", "error", "message"}
    assert doc["error"] == error


def test_inner_dist_both_refuses_before_the_census(capsys, monkeypatch):
    # A families have no closed form: the refusal comes before 2^15
    # members are classified
    def no_census(*args):
        raise RuntimeError("census_inner_distribution reached")

    monkeypatch.setattr(cli, "census_inner_distribution", no_census)
    code, doc = run_cli(capsys, "inner-dist", "--family", "A1", "-q", "2", "-m", "5", "-i", "4",
                        "--method", "both")
    assert code == 1
    assert set(doc) == {"command", "error", "message"}
    assert doc["error"] == "OutOfRange"


SRC = Path(cli.__file__).parent
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=None)
def _name_uses() -> tuple:
    """(module, innermost enclosing function, name) of every Name and
    Attribute in src/, one parse per module."""
    def walk(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Name, ast.Attribute)):
                yield module, owner, child.id if isinstance(child, ast.Name) else child.attr
            yield from walk(child, module, child.name if isinstance(child, FUNCTION) else owner)

    return tuple(use for path in sorted(SRC.glob("*.py"))
                 for use in walk(ast.parse(path.read_text()), path.stem, None))


def _references(*names):
    """(module, innermost enclosing function) of every Name or Attribute in
    src/ spelled as one of names."""
    return [(module, owner) for module, owner, name in _name_uses() if name in names]


def test_family_domains_has_one_reader():
    # schemes.family_lambdas is the one member source of every family scan:
    # an enumeration that changes what a scan visits edits that function,
    # and no scan grows its own lambda product
    assert _references("family_domains") == [("schemes", "family_lambdas")]


def test_extension_model_is_defined_once():
    # x^k mod f, the Frobenius matrix Phi and the GF(q) elimination are
    # derived in gfarith's PolyBasis alone: every other module reads the
    # model, and no module grows a second derivation from the modulus
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (*FUNCTION, ast.ClassDef)):
                defined.setdefault(node.name, []).append(path.stem)
    for name in ("_power_coords", "_row_reduce", "_solve", "_null_space", "_gfp_matrix", "PolyBasis"):
        assert defined.get(name) == ["gfarith"], name
    assert {module for module, _ in _references("_power_coords", "powers", "frobenius")} == {"gfarith"}


def test_budget_has_one_reader():
    # a library result is a function of its arguments: the environment is
    # read only by EnumerationBudget.from_env, and only the CLI calls it
    assert _references("environ", "getenv") == [("schemes", "from_env")]
    callers = _references("from_env")
    assert callers and {module for module, _ in callers} == {"cli"}


# definitions kept although src/ does not use them, with the reason
UNREFERENCED_ALLOWED = {("kernels", "use_numba"): "read by perfbench until ROADMAP item 1"}


def test_src_holds_no_test_only_code():
    # every function, method and class in src/ is used by src/ outside its
    # own body or exported in bchforms.__all__: a definition only tests
    # reach is a second way to do a job, so its tests belong on the
    # production path instead
    defined = sorted({(path.stem, node.name) for path in SRC.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, (*FUNCTION, ast.ClassDef))})
    unused = [(module, name) for module, name in defined
              if not (name.startswith("__") and name.endswith("__"))
              and name not in bchforms.__all__
              and (module, name) not in UNREFERENCED_ALLOWED
              and all(ref == (module, name) for ref in _references(name))]
    assert not unused, f"defined in src/ but used only outside it: {unused}"


def test_package_has_no_assert():
    # result guards must raise a typed error that survives python -O, and
    # every raise names a BchFormsError, not a bare ValueError
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            assert not isinstance(node, ast.Assert), where
            assert not (isinstance(node, ast.Name) and node.id == "AssertionError"), where
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                assert not (isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"), where


Q = st.integers(-1, 10)
M = st.integers(-1, 6)
I = st.integers(-1, 6)

# inner-dist, design-check and verify run under BCHFORMS_BUDGET=small:
# GF(q^m) <= 2^12 and at most 2^16 members, or a BudgetExceeded refusal.
# A draw whose family that budget admits is kept only if it has at most
# CHEAP_MEMBERS members (|family| = q^(m(2i-m+3)/2) in the paper), since a
# census classifies every member and a t-design test restricts every member
# to every t-subspace; each example then runs in under 0.5 s (2 vCPUs).
SMALL_BUDGET_COMMANDS = ("inner-dist", "design-check", "verify")
CHEAP_MEMBERS = 1 << 7


def _cheap(q: int, m: int, i: int) -> bool:
    e = m * (2 * i - m + 3) // 2
    return not (q >= 2 and m >= 1 and e >= 0 and CHEAP_MEMBERS < q ** e <= 1 << 16)


@st.composite
def cli_argv(draw):
    """argv of one subcommand with int values in small ranges, bad ones included."""
    cmd = draw(st.sampled_from(["params", "coset-leaders", "genpoly", "classify-form", "dg-bound",
                                "appendix-table", "inner-dist", "design-check", "verify"]))
    if cmd == "verify":
        argv = [cmd, draw(st.sampled_from(["cosets", "forms", "schemes", "appendix", "examples", "all"]))]
        q, m, i = draw(Q), draw(M), draw(I)
        argv += draw(st.sampled_from([[], ["--q", str(q)], ["--q", str(q), "--m", str(m), "--i", str(i)]]))
        argv += draw(st.sampled_from([[], ["--max-m", str(draw(M))]]))
        assume("--m" not in argv or _cheap(q, m, i))
        return argv
    qm = ["-q", str(draw(Q)), "-m", str(draw(M))]
    if cmd == "params":
        return [cmd, *qm, "-i", str(draw(I))]
    if cmd == "coset-leaders":
        return [cmd, *qm, "--threshold", str(draw(st.integers(-1, 5000)))]
    if cmd == "genpoly":
        return [cmd, *qm, "--delta", str(draw(st.integers(-1, 40)))]
    if cmd == "classify-form":
        lambdas = draw(st.lists(st.integers(-2, 5000), min_size=1, max_size=4))
        # joined with "=": argparse reads a separate "-1,5" as an option name
        return [cmd, *qm, "-i", str(draw(I)), "--lambdas=" + ",".join(map(str, lambdas))]
    if cmd == "dg-bound":
        n, d = draw(st.integers(-1, 8)), draw(st.integers(-1, 5))
        return [cmd, "-n", str(n), "-d", str(d), "-q", str(draw(Q))]
    if cmd == "appendix-table":
        c_class = draw(st.sampled_from(["zero", "square", "nonsquare", "nonzero", "nonzero-sum", "bogus"]))
        argv = [cmd, *qm, "--rank", str(draw(st.integers(-1, 7))), "--type", str(draw(st.integers(-2, 3))),
                "--c-class", c_class]
        # the oracle is one Walsh table: cheap up to q^m = 2^12
        q, m = int(qm[1]), int(qm[3])
        return argv if m < 1 or abs(q) ** m <= 1 << 12 else argv + ["--no-oracle"]
    i = draw(I)
    if cmd == "design-check":
        argv = [cmd, "--family", draw(st.sampled_from(["S1", "S2"])), *qm, "-i", str(i), "-t", str(draw(I))]
    else:
        family = draw(st.sampled_from(["Q1", "Q2", "S1", "S2", "A1", "A2"]))
        method = draw(st.sampled_from(["census", "closed", "both"]))
        argv = [cmd, "--family", family, *qm, "-i", str(i), "--method", method]
    assume(argv[-1] == "closed" or _cheap(int(qm[1]), int(qm[3]), i))
    return argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cli_argv())
def test_cli_contract(argv):
    out = io.StringIO()
    env = {"BCHFORMS_BUDGET": "small"} if argv[0] in SMALL_BUDGET_COMMANDS else {}
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, lines
    doc = json.loads(lines[0])
    assert isinstance(doc, dict)
    assert code in (0, 1, 2)
    if code == 1:
        assert set(doc) == {"command", "error", "message"}
