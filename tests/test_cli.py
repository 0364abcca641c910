import json

import pytest

from bchforms import cli
from bchforms.bchcode import generator_polynomial
from bchforms.cyclotomic import code_params, coset_leaders_geq
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
    assert doc["payload"]["closed"] == code_enumerator_odd(code_params(3, 3, 1)).to_json()
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


def test_inner_dist_both(capsys):
    code, doc = run_cli(
        capsys, "inner-dist", "--family", "S1", "-q", "3", "-m", "3", "-i", "1", "--method", "both"
    )
    assert code == 0
    lib = census_inner_distribution(FamilySpec("S1", 3, 3, 1)).to_json()
    assert doc["payload"]["census"] == lib
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


def test_verify_small_budget(capsys):
    code, doc = run_cli(capsys, "verify", "examples", "--budget", "small")
    assert code == 0
    assert doc["payload"]["failed"] == 0


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
])
def test_bad_input_is_one_json_error(capsys, argv):
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert set(doc) == {"command", "error", "message"}
    assert doc["error"] in ("OutOfRange", "NotPrime")
