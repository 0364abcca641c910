"""The four workloads: their task lists, the independent check of every
task's output, and the exact span counts a traced pass must show.

bchforms is imported inside the functions, never at module level, so that
``child.py setup`` times the library's import cost.  The code and family
lists are fixed; the seed only permutes the task order and draws the
lambda of each ``classify-form`` call.  Why each workload exists is in
README.md next to this file.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

ORACLE_LONG = [(2, 12, 5), (4, 6, 2), (3, 6, 2), (5, 4, 1)]
ORACLE_WIDE = [(2, 7, 4), (2, 8, 4), (4, 4, 2), (3, 4, 2), (5, 3, 1)]
CENSUS_SCHMIDT = [("S2", 3, 4, 2), ("S1", 3, 5, 2), ("S1", 5, 3, 1)]
CENSUS_CORRESPONDENCE = [(4, 4, 2), (2, 6, 3), (2, 5, 2)]
CENSUS_MIN_DISTANCE = [(2, 8, 4), (4, 4, 2), (2, 9, 4)]
CLASSIFY_CODES = [(2, 19, 9), (4, 9, 4), (3, 11, 5), (5, 7, 3)]
CLI_FIXED = [
    ["enumerator", "-q", "2", "-m", "14", "-i", "6", "--mode", "closed"],
    ["enumerator", "-q", "5", "-m", "6", "-i", "2", "--mode", "closed"],
    ["verify", "all", "--budget", "small"],
    ["inner-dist", "--family", "S2", "-q", "3", "-m", "4", "-i", "2", "--method", "both"],
    ["appendix-table", "-q", "5", "-m", "4", "--rank", "4", "--type", "1", "--c-class", "nonzero-sum"],
    ["params", "-q", "2", "-m", "20", "-i", "9"],
]

# `verify all --budget small` at this commit: forms suite 329 members,
# odd and even correspondences 881 + 616, even min-distance examples
# (2,6,2) and (2,6,3) 8 + 512, all through classify_quadratic; the
# examples suite scans (3,3,1), (2,6,2), (2,6,3) and (2,4,1) by the trace
# route, 27 + 8 + 512 + 4 coset-kernel calls.
VERIFY_SMALL_CLASSIFY = 329 + 881 + 616 + 8 + 512
VERIFY_SMALL_COSETS = 27 + 8 + 512 + 4


def family_size(q: int, m: int, i: int) -> int:
    """|Q1(i)| = |Q2(i)| = q^(m(2i-m+3)/2), from the paper."""
    return q ** (m * (2 * i - m + 3) // 2)


def dimension(q: int, m: int, i: int) -> int:
    """dim C_(q,m,delta_i) = m(2i-m+5)/2 + 1, from the paper."""
    return m * (2 * i - m + 5) // 2 + 1


@dataclass
class Task:
    """One unit of a pass.  ``run`` does the timed library work and returns
    what ``check`` needs; ``check(obs, corrupt)`` returns the failed checks
    and, with ``corrupt`` set, tests against a deliberately wrong expected
    value (the negative control)."""

    kind: str
    name: str
    run: Callable[[], object]
    check: Callable[[object, bool], list[str]]
    words: int = 0
    members: int = 0


@dataclass
class Context:
    root: Path
    workers: int
    budget: object = None
    tracer: object = None   # a tracing.Tracer while a traced pass runs
    child_rss_kb: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def _oracle_task(code, ctx: Context) -> Task:
    from bchforms import cyclotomic, oracle, weights

    q, m, i = code

    def run():
        params = cyclotomic.code_params(q, m, i)
        return params, oracle.trace_route_weights(params, ctx.budget, ctx.workers)

    def check(obs, corrupt):
        params, enum = obs
        bad = []
        want = params.delta_i + (1 if corrupt else 0)
        if enum.min_positive_weight() != want:
            bad.append(f"min distance {enum.min_positive_weight()} != delta_i {want}")
        if enum.total() != q ** dimension(q, m, i):
            bad.append(f"{enum.total()} words != q^dim")
        if q % 2 and enum != weights.code_enumerator_odd(params):
            bad.append("enumerator differs from code_enumerator_odd")
        return bad

    return Task("oracle", f"trace_route_weights{code}", run, check,
                words=q ** dimension(q, m, i), members=family_size(q, m, i))


def _schmidt_task(kind, q, m, i) -> Task:
    from bchforms import schemes

    spec = schemes.FamilySpec(kind, q, m, i)

    def run():
        return schemes.census_inner_distribution(spec), schemes.schmidt_for_family(spec)

    def check(obs, corrupt):
        census, closed = obs
        want = dict(closed.entries)
        if corrupt:
            key = next(iter(want))
            want[key] += 1
        bad = []
        if census.entries != want:
            bad.append(f"census {census.entries} != closed {want}")
        if census.total() != family_size(q, m, i):
            bad.append(f"census total {census.total()} != family size")
        return bad

    return Task("schmidt", f"census vs schmidt {kind}{(q, m, i)}", run, check, members=family_size(q, m, i))


def _correspondence_task(code, ctx: Context) -> Task:
    from bchforms import oracle, schemes

    q, m, i = code
    odd_m = m % 2 == 1
    qspec = schemes.FamilySpec("Q1" if odd_m else "Q2", q, m, i)
    aspec = schemes.FamilySpec("A1" if odd_m else "A2", q, m, i)

    def run():
        return oracle.rank_type_census(qspec, budget=ctx.budget), schemes.census_inner_distribution(aspec)

    def check(obs, corrupt):
        qd, ad = obs
        want = dict(ad.entries)
        if corrupt:
            want[0] = want.get(0, 0) + 1
        bad = []
        for rank in range(0, m + 1, 2):
            lhs = (qd.entries.get((rank, 0), 0) + qd.entries.get((rank + 1, 1), 0)
                   + qd.entries.get((rank, 2), 0))
            if lhs != want.get(rank, 0):
                bad.append(f"rank {rank}: Q side {lhs} != A side {want.get(rank, 0)}")
        size = family_size(q, m, i)
        if qd.total() != size or ad.total() != size:
            bad.append(f"totals {qd.total()}, {ad.total()} != family size {size}")
        return bad

    return Task("correspondence", f"correspondence Q~A{code}", run, check, members=2 * family_size(q, m, i))


def _witness_weight(q: int, m: int, i: int, witness: dict) -> int | None:
    """Weight of the witness word Q(x) + Tr(mu x) + eps over x in GF(q^m)*,
    rebuilt from the paper's definition of the family with the field's
    exp/log tables: Q(x) = sum_j Tr(lambda_j x^(q^j+1)), the j = m/2 term
    (even m) with the trace from GF(q^(m/2)).  Field elements are added
    digit by digit in base p, so neither the library's value vectors nor
    its coset kernel take part.  None when the lambdas are not a member of
    the family."""
    import numpy as np

    from bchforms.gfarith import field_for

    fld = field_for(q, m)
    p = next(d for d in range(2, q + 1) if q % d == 0)
    digits = m * next(e for e in range(1, q) if p ** e == q)
    n = q ** m - 1
    exp = np.asarray(fld.exp_index, dtype=np.int64)
    log = np.asarray(fld.log_index, dtype=np.int64)
    weights_p = p ** np.arange(digits, dtype=np.int64)
    t = np.arange(n, dtype=np.int64)

    def trace(k, terms):
        """Base-p digits of sum_{r<terms} alpha^(k q^r)."""
        return sum((exp[(k * pow(q, r, n)) % n][:, None] // weights_p) % p for r in range(terms))

    if m % 2:
        slots = [(j, False) for j in range((m + 1) // 2, i + 2)]
    else:
        slots = [(m // 2, True)] + [(j, False) for j in range((m + 2) // 2, i + 2)]
    lambdas = witness["lambdas"]
    if len(lambdas) != len(slots):
        return None
    acc = np.zeros((n, digits), dtype=np.int64)
    for (j, half), lam in zip(slots, lambdas):
        if lam == 0:
            continue
        if half and log[lam] % (q ** (m // 2) + 1):
            return None
        acc += trace((log[lam] + t * (pow(q, j, n) + 1)) % n, m // 2 if half else m)
    if witness["mu"]:
        acc += trace((log[witness["mu"]] + t) % n, m)
    acc += (witness["eps"] // weights_p) % p
    return int(np.count_nonzero((acc % p).any(axis=1)))


def _witness_check(q: int, m: int, i: int, delta_i: int, d: int, witness: dict, corrupt: bool) -> list[str]:
    """The claimed distance and witness against delta_i, the rank/type the
    paper requires of a witness, and the witness word's recounted weight."""
    want = delta_i + (1 if corrupt else 0)
    bad = []
    if d != want:
        bad.append(f"min distance {d} != delta_i {want}")
    rank_type = (witness["rank"], witness["type"])
    if rank_type not in ((2 * m - 2 * i - 1, 1), (2 * m - 2 * i - 2, 2)):
        bad.append(f"witness rank/type {rank_type} is neither ({2 * m - 2 * i - 1}, 1) nor ({2 * m - 2 * i - 2}, 2)")
    weight = _witness_weight(q, m, i, witness)
    if weight != want:
        bad.append(f"witness {witness} has weight {weight}, expected {want}")
    return bad


def _min_distance_task(code) -> Task:
    from bchforms import cyclotomic, weights

    q, m, i = code

    def run():
        params = cyclotomic.code_params(q, m, i)
        return params, weights.min_distance_even(params)

    def check(obs, corrupt):
        params, (d, witness) = obs
        return _witness_check(q, m, i, params.delta_i, d, witness, corrupt)

    return Task("min_distance", f"min_distance_even{code}", run, check, members=family_size(q, m, i))


# ---------------------------------------------------------------------------
# cli-cold: one fresh process per call
# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _call_cli(argv, ctx: Context) -> dict:
    """Run one CLI call in a fresh interpreter through child.py and return
    its exit code, stdout and the child's own report."""
    env = child_env(ctx.root)
    env["PERFBENCH_TRACE"] = "1" if ctx.tracer else "0"
    with ctx.tracer.span("cli.call") if ctx.tracer else nullcontext() as call_id:
        t_spawn = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "cli", *argv],
                              cwd=ctx.root, env=env, capture_output=True, text=True, timeout=170)
    report = None
    for line in proc.stderr.splitlines():
        if line.startswith("PERFBENCH "):
            report = json.loads(line[len("PERFBENCH "):])
    if report is not None:
        ctx.child_rss_kb.append(report["maxrss_kb"])
        if ctx.tracer:
            ctx.tracer.adopt(report["spans"], report["work"], call_id, t_spawn, report["main_ns"])
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-2000:], "report": report}


def _one_json(out: dict) -> tuple[dict | None, list[str]]:
    """The single JSON object a successful CLI call prints, or the reasons not."""
    bad = []
    if out["rc"] != 0:
        bad.append(f"exit code {out['rc']}: {out['stderr'][-300:]}")
    lines = [ln for ln in out["stdout"].splitlines() if ln.strip()]
    if len(lines) != 1:
        return None, bad + [f"{len(lines)} stdout lines, expected one JSON object"]
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return None, bad + [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict) or "payload" not in doc:
        return None, bad + ["stdout JSON has no payload"]
    if out["report"] is None:
        bad.append("child wrote no report")
    return doc["payload"], bad


def _cli_task(argv, payload_check, ctx: Context) -> Task:
    def run():
        return _call_cli(argv, ctx)

    def check(out, corrupt):
        payload, bad = _one_json(out)
        if payload is not None:
            bad += payload_check(payload, corrupt)
        return bad

    return Task(argv[0], "bchforms " + " ".join(argv), run, check)


def _classify_check(q, m, i, lam):
    lo = 2 * m - 2 * i - 2

    def check(payload, corrupt):
        rank, typ = payload["rank"], payload["type"]
        hi = m - (1 if corrupt else 0)
        bad = []
        if payload["lambdas"] != [lam]:
            bad.append(f"lambdas {payload['lambdas']} != [{lam}]")
        if not lo <= rank <= hi:
            bad.append(f"rank {rank} outside [{lo}, {hi}]")
        if q % 2 == 0 and (typ == 1) != (rank % 2 == 1):
            bad.append(f"even q: type {typ} with rank {rank}")
        return bad

    return check


def _enumerator_check(q, m, i):
    from bchforms import cyclotomic

    delta_i = cyclotomic.code_params(q, m, i).delta_i

    def check(payload, corrupt):
        closed = payload["closed"]
        if q % 2 == 0:
            return _witness_check(q, m, i, delta_i, closed["min_distance"], closed["witness"], corrupt)
        # odd q: the closed-form enumerator; no independent count of its
        # q^dim words is affordable, so only its total and its least
        # positive weight are checked
        counts = {int(w): int(c) for w, c in closed["counts"].items()}
        got = min(w for w, c in counts.items() if w > 0 and c)
        want = delta_i + (1 if corrupt else 0)
        bad = [] if got == want else [f"min distance {got} != delta_i {want}"]
        if sum(counts.values()) != q ** dimension(q, m, i):
            bad.append(f"{sum(counts.values())} words != q^dim")
        return bad

    return check


def _params_check(q, m, i):
    from bchforms import cyclotomic

    p = cyclotomic.code_params(q, m, i)
    want = {"q": p.q, "m": p.m, "i": p.i, "length": p.length, "delta": p.delta,
            "delta_i": p.delta_i, "dimension": p.dimension, "bose": p.bose_distance}

    def check(payload, corrupt):
        expect = dict(want, dimension=want["dimension"] + 1) if corrupt else want
        return [] if payload == expect else [f"params {payload} != {expect}"]

    return check


def _failed_zero(payload, corrupt):
    want = 1 if corrupt else 0
    return [] if payload["failed"] == want else [f"verify failed={payload['failed']}, expected {want}"]


def _matches(payload, corrupt):
    return [] if payload["match"] is (not corrupt) else [f"match is {payload['match']}"]


def _cli_tasks(rng: random.Random, ctx: Context) -> list[Task]:
    tasks = []
    for q, m, i in CLASSIFY_CODES:
        lam = rng.randrange(1, q ** m)  # odd m: the slot domain is the whole field
        argv = ["classify-form", "-q", str(q), "-m", str(m), "-i", str(i), "--lambdas", str(lam)]
        tasks.append(_cli_task(argv, _classify_check(q, m, i, lam), ctx))
    checks = {
        "enumerator": lambda a: _enumerator_check(int(a[2]), int(a[4]), int(a[6])),
        "verify": lambda a: _failed_zero,
        "inner-dist": lambda a: _matches,
        "appendix-table": lambda a: _matches,
        "params": lambda a: _params_check(int(a[2]), int(a[4]), int(a[6])),
    }
    for argv in CLI_FIXED:
        argv = list(argv)
        if argv[0] == "verify":
            argv += ["--workers", str(ctx.workers)]
        tasks.append(_cli_task(argv, checks[argv[0]](argv), ctx))
    return tasks


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    fields: list            # (q, m) of every field built in this process
    cold: bool              # per-call set-up stays in wall_s; no warm-up pass
    build: Callable[[random.Random, Context], list[Task]]
    expected_calls: dict    # span name -> exact calls in one traced pass


def _fields(codes) -> list:
    return sorted({(q, m) for q, m, *_ in codes})


def _classify_counts(q_members, s_members=0, a_members=0) -> dict:
    """Span counts of classifying Q members (odd q go through
    classify_symmetric, even q through bilinear_rank), S members by
    classify_symmetric and A members by bilinear_rank."""
    even = sum(n for q, n in q_members if q % 2 == 0)
    odd = sum(n for q, n in q_members if q % 2 == 1)
    return {
        "forms.classify_quadratic": even + odd,
        "forms.polarize": even + odd,
        "forms.classify_symmetric": odd + s_members,
        "forms.bilinear_rank": even + a_members,
    }


def _oracle_counts(codes) -> dict:
    members = sum(family_size(*c) for c in codes)
    return {
        "cyclotomic.code_params": len(codes),
        "oracle.trace_route_weights": len(codes),
        "weights.code_enumerator_odd": sum(1 for q, _, _ in codes if q % 2),
        "kernels.eval_qvec": members,
        "kernels.coset_weight_counts": members,
        "forms.classify_quadratic": 0,
    }


def _census_counts() -> dict:
    q_members = [(q, family_size(q, m, i)) for q, m, i in CENSUS_CORRESPONDENCE + CENSUS_MIN_DISTANCE]
    out = _classify_counts(
        q_members,
        s_members=sum(family_size(q, m, i) for _, q, m, i in CENSUS_SCHMIDT),
        a_members=sum(family_size(*c) for c in CENSUS_CORRESPONDENCE),
    )
    out["kernels.coset_weight_counts"] = 0
    out["weights.min_distance_even"] = len(CENSUS_MIN_DISTANCE)
    out["oracle.rank_type_census"] = len(CENSUS_CORRESPONDENCE)
    out["schemes.census_inner_distribution"] = len(CENSUS_SCHMIDT) + len(CENSUS_CORRESPONDENCE)
    out["schemes.schmidt_for_family"] = len(CENSUS_SCHMIDT)
    return out


def _cli_counts() -> dict:
    classified = len(CLASSIFY_CODES) + family_size(2, 14, 6) + VERIFY_SMALL_CLASSIFY
    return {
        "forms.classify_quadratic": classified,
        "kernels.coset_weight_counts": VERIFY_SMALL_COSETS,
        "verify.run_suite": 1,
        "cli.main": len(CLASSIFY_CODES) + len(CLI_FIXED),
    }


def _census_tasks(rng, ctx):
    return ([_schmidt_task(*s) for s in CENSUS_SCHMIDT]
            + [_correspondence_task(c, ctx) for c in CENSUS_CORRESPONDENCE]
            + [_min_distance_task(c) for c in CENSUS_MIN_DISTANCE])


WORKLOADS = {
    "oracle-long": Workload("oracle-long", _fields(ORACLE_LONG), False,
                            lambda rng, ctx: [_oracle_task(c, ctx) for c in ORACLE_LONG],
                            _oracle_counts(ORACLE_LONG)),
    "oracle-wide": Workload("oracle-wide", _fields(ORACLE_WIDE), False,
                            lambda rng, ctx: [_oracle_task(c, ctx) for c in ORACLE_WIDE],
                            _oracle_counts(ORACLE_WIDE)),
    "census": Workload("census",
                       _fields([s[1:] for s in CENSUS_SCHMIDT] + CENSUS_CORRESPONDENCE + CENSUS_MIN_DISTANCE),
                       False, _census_tasks, _census_counts()),
    "cli-cold": Workload("cli-cold", [], True, _cli_tasks, _cli_counts()),
}


def make_tasks(workload: Workload, seed: int, ctx: Context) -> list[Task]:
    """The workload's tasks in the seed's order."""
    rng = random.Random(seed)
    tasks = workload.build(rng, ctx)
    rng.shuffle(tasks)
    return tasks


def warmup_tasks(workload: Workload, tasks: list[Task]) -> list[Task]:
    """The smallest task of each kind, run once before timing so that
    first-call costs (lazy imports, the thread pool, a JIT when numba is
    present) stay out of wall_s.  None for cold workloads."""
    if workload.cold:
        return []
    smallest: dict[str, Task] = {}
    for task in tasks:
        if task.kind not in smallest or task.members < smallest[task.kind].members:
            smallest[task.kind] = task
    return list(smallest.values())


def build_fields(workload: Workload) -> None:
    """Finish every lazy table of the workload's fields."""
    from bchforms.gfarith import field_for

    for q, m in workload.fields:
        fld = field_for(q, m)
        fld.trace_vec
        if m % 2 == 0:
            fld.half_trace_vec
