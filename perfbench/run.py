"""bchforms benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
next to this directory, never from an installed copy.  Workloads:
``oracle-long``, ``oracle-wide``, ``census`` and ``cli-cold`` (see
README.md).  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``).  The line before it records the environment, every pass,
the failure ratio, throughput and, when traced, the full per-layer table.

A run builds the workload's fields in this process, untimed, then times
the same set-up in twenty fresh interpreters and reports their median as
``setup_s``.  In-process workloads then run the
smallest task of each kind once, untimed, so that first-call costs do not
land in ``wall_s``; cli-cold has no warm-up, because a shell user pays
them on every call.  Passes follow until the next one would end after
``--seconds`` (counted from the start of set-up, so a run's length stays
near ``--seconds``); ``wall_s`` is their median.  A
traced run adds one pass with spans on every layer after the untraced
ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STRIPPED_ENV = ("BCHFORMS_BUDGET", "BCHFORMS_NO_NUMBA")
SETUP_CHILDREN = 20
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metric of BENCHMARK.json -> (span name, column of the layer
# table); the remaining per-layer metrics are derived in layer_metrics
LAYER_COLUMNS = {
    "gfarith.build_field.s": ("gfarith.build_field", "s"),
    "gfarith.trace_vec.s": ("gfarith.trace_vec", "s"),
    "cyclotomic.code_params.s": ("cyclotomic.code_params", "s"),
    "kernels.coset_weight_counts.s": ("kernels.coset_weight_counts", "s"),
    "kernels.coset_weight_counts.calls": ("kernels.coset_weight_counts", "calls"),
    "kernels.eval_qvec.s": ("kernels.eval_qvec", "s"),
    "kernels.eval_qvec.calls": ("kernels.eval_qvec", "calls"),
    "oracle.trace_route_weights.self_s": ("oracle.trace_route_weights", "self_s"),
    "oracle.rank_type_census.self_s": ("oracle.rank_type_census", "self_s"),
    "oracle.appendix_census.s": ("oracle.appendix_census", "s"),
    **{f"forms.{fn}.{col}": (f"forms.{fn}", col)
       for fn in ("classify_quadratic", "polarize", "bilinear_rank", "classify_symmetric")
       for col in ("s", "self_s", "calls")},
    "schemes.census_inner_distribution.self_s": ("schemes.census_inner_distribution", "self_s"),
    "schemes.schmidt_for_family.s": ("schemes.schmidt_for_family", "s"),
    "weights.min_distance_even.s": ("weights.min_distance_even", "s"),
    "weights.code_enumerator_odd.s": ("weights.code_enumerator_odd", "s"),
    "weights.appendix_frequency_tables.s": ("weights.appendix_frequency_tables", "s"),
    "verify.run_suite.s": ("verify.run_suite", "s"),
    "cli.process_start_s": ("cli.process_start", "s"),
    "bench.self_s": ("bench.pass", "self_s"),
}
KERNEL_SPANS = ("kernels.eval_qvec", "kernels.coset_weight_counts")


@dataclass
class Pass:
    wall: float
    task_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    observations: list = field(default_factory=list)


def run_pass(tasks, tracer=None) -> Pass:
    """One pass over the task list, every output checked."""
    result = Pass(0.0)
    t0 = time.perf_counter()
    with tracer.span("bench.pass") if tracer else nullcontext():
        for task in tasks:
            t1 = time.perf_counter()
            try:
                obs = task.run()
                bad = task.check(obs, False)
            except Exception:  # a failing task is counted, the run goes on
                obs, bad = None, [traceback.format_exc(limit=3)]
            result.task_s.append(time.perf_counter() - t1)
            result.observations.append(obs)
            if bad:
                result.failures.append({"task": task.name, "failed": bad})
    result.wall = time.perf_counter() - t0
    return result


def negative_control(tasks, last: Pass) -> dict:
    """Check every output of the last pass against a deliberately wrong
    expected value; each of those checks must fail."""
    caught = 0
    for task, obs in zip(tasks, last.observations):
        if obs is not None and task.check(obs, True):
            caught += 1
    return {"attempted": len(tasks), "failed": caught}


def child_setup(name: str) -> float:
    import workloads

    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", name],
                          cwd=ROOT, env=workloads.child_env(ROOT), capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def environment(workers: int) -> dict:
    import numpy

    from bchforms import kernels, oracle

    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {
        "backend": "numba" if kernels.use_numba() else "numpy",
        "workers": workers,
        "usable_cores": len(os.sched_getaffinity(0)),
        "default_workers": oracle.default_workers(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def measure(tasks, deadline: float, reserve: int) -> list[Pass]:
    """Untraced passes until the next one (plus ``reserve`` more) would end
    after the deadline; at least one."""
    passes = []
    while True:
        passes.append(run_pass(tasks))
        if time.perf_counter() + (1 + reserve) * passes[-1].wall > deadline:
            return passes


def layer_metrics(tracer, workload, workers: int, untraced_wall: float, traced: Pass) -> tuple[dict, dict]:
    """Per-layer metrics and the detail of the traced pass."""
    import tracing

    pass_root = next(s[3] for s in tracer.spans if s[0] == "bench.pass")
    parents = {s[3]: s[4] for s in tracer.spans}
    names = {s[3]: s[0] for s in tracer.spans}

    def in_pass(sid):
        while sid is not None:
            if sid == pass_root:
                return True
            sid = parents.get(sid)
        return False

    pass_spans = [s for s in tracer.spans if in_pass(s[3])]
    table = tracing.layer_table(tracer.spans)
    pass_table = tracing.layer_table(pass_spans)
    calls = {name: row["calls"] for name, row in pass_table.items()}
    count_errors = {
        name: {"expected": want, "got": calls.get(name, 0)}
        for name, want in workload.expected_calls.items() if calls.get(name, 0) != want
    }
    unlinked = sum(1 for s in pass_spans if s[0] in KERNEL_SPANS
                   and names.get(s[4]) != "oracle.trace_route_weights")

    def get(name, col):
        return table.get(name, {}).get(col, 0)

    metrics = {key: get(*src) for key, src in LAYER_COLUMNS.items()}
    words = tracer.work.get("kernels.coset_weight_counts", 0)
    metrics["kernels.coset_weight_counts.ns_per_word"] = (
        get("kernels.coset_weight_counts", "s") * 1e9 / words if words else 0.0)
    kernel_s = sum(get(name, "s") for name in KERNEL_SPANS)
    metrics["oracle.worker_busy_ratio"] = kernel_s / (traced.wall * workers)
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced.wall - untraced_wall
    detail = {
        "layers": {name: {k: round(v, 6) for k, v in row.items()} for name, row in sorted(table.items())},
        "accounting": {
            "traced_wall_s": traced.wall,
            "pass_self_sum_s": sum(row["self_s"] for row in pass_table.values()),
            "untraced_wall_s": untraced_wall,
            "overhead_s": traced.wall - untraced_wall,
        },
        "span_count_errors": count_errors,
        "unlinked_kernel_spans": unlinked,
        "kernel_words": words,
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bchforms" / "__init__.py").is_file():
        print(f"perfbench: no bchforms sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload}; pick from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0))
    deadline = time.perf_counter() + args.seconds

    # set-up: build this process's fields (traced, when asked), then time
    # the same set-up in fresh interpreters
    tracer = None
    import bchforms  # noqa: F401
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    with tracer.span("bench.setup") if tracer else nullcontext():
        workloads.build_fields(workload)
    if tracer:
        tracer.uninstall()
    setup_samples = [child_setup(workload.name) for _ in range(SETUP_CHILDREN)]

    from bchforms.oracle import EnumerationBudget

    ctx = workloads.Context(root=ROOT, workers=workers, budget=EnumerationBudget())
    tasks = workloads.make_tasks(workload, args.seed, ctx)
    env = environment(workers)

    warm_tasks = workloads.warmup_tasks(workload, tasks)
    warmup = run_pass(warm_tasks) if warm_tasks else None
    passes = measure(tasks, deadline, reserve=args.trace)
    traced = None
    if tracer:
        ctx.tracer = tracer
        tracer.install()
        try:
            traced = run_pass(tasks, tracer)
        finally:
            tracer.uninstall()
            ctx.tracer = None

    every = ([warmup] if warmup else []) + passes + ([traced] if traced else [])
    attempted = len(warm_tasks) + len(tasks) * (len(every) - (1 if warmup else 0))
    failed = sum(len(p.failures) for p in every)
    control = negative_control(tasks, passes[-1])
    wall = statistics.median(p.wall for p in passes)
    task_max = statistics.median(max(p.task_s) for p in passes)
    if workload.cold:
        peak_kb = max(ctx.child_rss_kb, default=0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    correct = failed == 0 and control["failed"] == control["attempted"]

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "env": env,
        "budget": {"max_codewords": ctx.budget.max_codewords, "max_field_size": ctx.budget.max_field_size},
        "setup_samples_s": setup_samples,
        "warmup": {"tasks": [t.name for t in warm_tasks], "wall_s": warmup.wall if warmup else None},
        "passes_s": [p.wall for p in passes],
        "tasks": [{"task": t.name, "s": [p.task_s[k] for p in passes]} for k, t in enumerate(tasks)],
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "failures": [f for p in every for f in p.failures][:5],
        "negative_control": control,
    }
    words = sum(t.words for t in tasks)
    members = sum(t.members for t in tasks)
    if words:
        detail["words_per_s"] = {"value": words / wall, "unit": "1/s", "words": words}
    if workload.name == "census":
        detail["members_per_s"] = {"value": members / wall, "unit": "1/s", "members": members}
    if workload.cold:
        detail["cli_call_max_s"] = {"value": task_max, "unit": "s"}

    if traced is None:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            "task_max_s": {"value": task_max, "unit": "s"},
        }
    else:
        values, trace_detail = layer_metrics(tracer, workload, workers, wall, traced)
        detail["trace"] = trace_detail
        correct = correct and not trace_detail["span_count_errors"] and trace_detail["unlinked_kernel_spans"] == 0
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        if set(values) != set(units):
            raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
