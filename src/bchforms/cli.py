"""Command-line front end.

Every subcommand is a thin adapter over the library and prints one JSON
object: {"command", "params", "payload", "elapsed_ms"}.  Counts are
decimal strings so consumers never overflow.  Exit code 0 means success
and, for comparing commands, that every comparison matched.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import cyclotomic as cyc
from . import oracle as orc
from . import weights as wts
from .bchcode import generator_polynomial
from .errors import BchFormsError, OutOfRange
from .forms import RankType, TraceQuadraticForm, classify_quadratic, family_exponent, polarize
from .gfarith import field_for
from .oracle import EnumerationBudget
from .schemes import FamilySpec, census_inner_distribution, dg_bound, family_design_check, schmidt_for_family
from .verify import run_suite


class CommandMismatch(Exception):
    """Raised when a comparing command finds a discrepancy (exit code 2)."""

    def __init__(self, payload):
        super().__init__("comparison failed")
        self.payload = payload


def _check_field(q: int, m: int, budget: EnumerationBudget) -> None:
    """Refuse GF(q^m) above the field budget before any work is done."""
    if m < 1:
        raise OutOfRange(f"m={m} must be >= 1")
    budget.check_field(q ** m)


def _digit_limit() -> int:
    """Python's int-to-str digit limit, 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_many_digits(limit: int) -> OutOfRange:
    return OutOfRange(f"a count has more than {limit} decimal digits, Python's int-to-str limit")


def _count(n: int) -> int:
    """n, once its decimal form is known to fit Python's int-to-str digit
    limit; past the limit an OutOfRange, raised before any conversion is
    tried.  The limit stays: conversion time is quadratic in the digits."""
    limit = _digit_limit()
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit:
        raise _too_many_digits(limit)
    return n


def _check_power(q: int, e: int, parts: int = 1) -> None:
    """Refuse as _count would once q^e / parts >= 10^limit, before the counts
    behind it are computed.  Far past the limit the exponent decides, since
    q^e >= 2^(e (bitlen(q) - 1)); nearer, q^e has under twice the bits of
    parts * 10^limit and is compared exactly."""
    limit = _digit_limit()
    bar = parts * 10 ** limit
    if limit and (e * (q.bit_length() - 1) >= bar.bit_length() or q ** e >= bar):
        raise _too_many_digits(limit)


def _table(counts: dict) -> dict:
    """A count table as JSON in key order: "r,t" for a rank/type key, else decimal strings."""
    return {(f"{k[0]},{k[1]}" if isinstance(k, tuple) else str(_count(k))): str(_count(v))
            for k, v in sorted(counts.items())}


def _enumerator(enum) -> dict:
    return {"length": _count(enum.length), "counts": _table(enum.counts)}


def cmd_params(args, budget):
    p = cyc.code_params(args.q, args.m, args.i)
    return {k: _count(v) for k, v in {
        "q": p.q, "m": p.m, "i": p.i, "length": p.length,
        "delta": p.delta, "delta_i": p.delta_i,
        "dimension": p.dimension, "bose": p.bose_distance,
    }.items()}


def cmd_coset_leaders(args, budget):
    _check_field(args.q, args.m, budget)
    leaders = cyc.coset_leaders_geq(args.threshold, args.q, args.m)
    return {"threshold": args.threshold, "leaders": leaders}


def cmd_genpoly(args, budget):
    _check_field(args.q, args.m, budget)
    code = generator_polynomial(args.q, args.m, args.delta)
    return code.to_json()


def cmd_enumerator(args, budget):
    params = cyc.code_params(args.q, args.m, args.i)
    payload: dict = {"delta_i": _count(params.delta_i), "dimension": _count(params.dimension)}
    odd = args.q % 2 == 1
    if args.mode in ("closed", "both"):
        if odd:
            # the q^dim words fall on n + 1 weights, so some count is at
            # least q^dim / (n + 1)
            _check_power(args.q, params.dimension, params.length + 1)
            payload["closed"] = _enumerator(wts.code_enumerator_odd(params))
        else:
            d, witness = wts.min_distance_even(params, budget)
            payload["closed"] = {"min_distance": _count(d), "witness": witness}
    if args.mode in ("oracle", "both"):
        dist = orc.trace_route_weights(params, budget, args.workers)
        payload["oracle"] = _enumerator(dist)
        payload["oracle_min_distance"] = _count(dist.min_positive_weight())
    if args.mode == "both":
        if odd:
            payload["match"] = payload["closed"] == payload["oracle"]
        else:
            payload["match"] = payload["closed"]["min_distance"] == payload["oracle_min_distance"]
        if not payload["match"]:
            raise CommandMismatch(payload)
    return payload


def _parse_lambdas(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in raw.split(",") if v.strip() != "")
    except ValueError:
        raise OutOfRange(f"--lambdas {raw!r} is not a comma-separated list of integers") from None


def cmd_classify_form(args, budget):
    lambdas = _parse_lambdas(args.lambdas)
    _check_field(args.q, args.m, budget)
    form = TraceQuadraticForm(field_for(args.q, args.m), args.i, lambdas)
    rt = classify_quadratic(form)
    return {
        "lambdas": list(lambdas),
        "rank": rt.rank,
        "type": rt.type,
        "gram": polarize(form).entries.tolist(),
    }


def cmd_inner_dist(args, budget):
    spec = FamilySpec(args.family, args.q, args.m, args.i)
    _check_power(spec.q, family_exponent(spec.m, spec.i))
    payload: dict = {"family": args.family, "size": _count(spec.size)}
    # the closed form first: it refuses a family it has no formula for
    # before the census scans that family
    closed = _table(schmidt_for_family(spec).entries) if args.method in ("closed", "both") else None
    if args.method in ("census", "both"):
        payload["census"] = _table(census_inner_distribution(spec, budget).entries)
    if closed is not None:
        payload["closed"] = closed
    if args.method == "both":
        payload["match"] = payload["census"] == payload["closed"]
        if not payload["match"]:
            raise CommandMismatch(payload)
    return payload


def cmd_dg_bound(args, budget):
    return {"n": args.n, "d": args.d, "q": args.q, "bound": str(_count(dg_bound(args.n, args.d, args.q)))}


def cmd_design_check(args, budget):
    spec = FamilySpec(args.family, args.q, args.m, args.i)
    return {"family": args.family, "t": args.t, "is_design": family_design_check(spec, args.t, budget)}


def cmd_appendix_table(args, budget):
    rt = RankType(args.rank, args.type)
    closed = wts.appendix_frequency_tables(args.q, args.m, rt, args.c_class)
    payload = {"closed": _table(closed)}
    if not args.no_oracle:
        from .forms import canonical_form

        counted = orc.appendix_census(args.q, args.m, canonical_form(args.q, args.m, rt), args.c_class, budget)
        payload["oracle"] = _table(counted)
        payload["match"] = closed == counted
        if not payload["match"]:
            raise CommandMismatch(payload)
    return payload


def cmd_verify(args, budget):
    checks = run_suite(
        args.suite,
        q=args.q, m=args.m, i=args.i, max_m=args.max_m,
        budget=budget, workers=args.workers,
    )
    payload = {
        "suite": args.suite,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "passed": sum(1 for _, ok, _ in checks if ok),
        "failed": sum(1 for _, ok, _ in checks if not ok),
    }
    if payload["failed"]:
        raise CommandMismatch(payload)
    return payload


def _emit(command: str, params: dict, payload, exit_code: int = 0, t0: float | None = None) -> int:
    params = {k: v for k, v in params.items() if k != "func" and v is not None}
    doc = {
        "command": command,
        "params": params,
        "payload": payload,
        "elapsed_ms": round((time.time() - t0) * 1000, 3) if t0 else None,
    }
    print(json.dumps(doc))
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bchforms", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        return p

    p = add("params", cmd_params, help="code parameters (q, m, i)")
    for flag in ("-q", "-m", "-i"):
        p.add_argument(flag, type=int, required=True)

    p = add("coset-leaders", cmd_coset_leaders, help="coset leaders >= threshold")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--threshold", type=int, required=True)

    p = add("genpoly", cmd_genpoly, help="generator polynomial of C_(q,m,delta)")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)

    p = add("enumerator", cmd_enumerator, help="weight enumerator / minimum distance")
    for flag in ("-q", "-m", "-i"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--mode", choices=("closed", "oracle", "both"), default="both")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--budget", default=None)

    p = add("classify-form", cmd_classify_form, help="rank/type of one family member")
    for flag in ("-q", "-m", "-i"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--lambdas", required=True,
                   help="comma-separated field element indices, one per slot")

    p = add("inner-dist", cmd_inner_dist, help="inner distribution of a family")
    p.add_argument("--family", choices=("Q1", "Q2", "S1", "S2", "A1", "A2"), required=True)
    for flag in ("-q", "-m", "-i"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--method", choices=("census", "closed", "both"), default="census")

    p = add("dg-bound", cmd_dg_bound, help="Delsarte-Goethals bound")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-q", type=int, required=True)

    p = add("design-check", cmd_design_check, help="t-design test of an S family")
    p.add_argument("--family", choices=("S1", "S2"), required=True)
    for flag in ("-q", "-m", "-i"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("-t", type=int, required=True)

    p = add("appendix-table", cmd_appendix_table, help="N(Q+L+c) frequency table")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--type", type=int, required=True)
    p.add_argument("--c-class", dest="c_class", required=True)
    p.add_argument("--no-oracle", action="store_true")

    p = add("verify", cmd_verify, help="run a closed-form-vs-oracle property suite")
    p.add_argument("suite", choices=("cosets", "forms", "schemes", "appendix", "examples", "all"))
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--max-m", dest="max_m", type=int, default=None)
    p.add_argument("--budget", default=None)
    p.add_argument("--workers", type=int, default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        workers = getattr(args, "workers", None)
        if workers is not None and workers < 1:
            raise OutOfRange(f"--workers {workers} is not a positive thread count")
        # the one reader of BCHFORMS_BUDGET, which --budget overrides; the
        # budget goes to every library scan, and params and dg-bound scan nothing
        if args.func in (cmd_params, cmd_dg_bound):
            budget = None
        elif getattr(args, "budget", None):
            budget = EnumerationBudget.parse(args.budget)
        else:
            budget = EnumerationBudget.from_env()
        payload = args.func(args, budget)
    except CommandMismatch as exc:
        _emit(args.command, vars(args), exc.payload, t0=t0)
        return 2
    except BchFormsError as exc:
        print(json.dumps({
            "command": args.command,
            "error": type(exc).__name__,
            "message": str(exc),
        }))
        return 1
    return _emit(args.command, vars(args), payload, t0=t0)


if __name__ == "__main__":
    sys.exit(main())
