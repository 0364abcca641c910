"""Fresh-interpreter helpers started by run.py; not meant to be run by hand.

``child.py setup WORKLOAD``
    Time ``import bchforms`` plus every lazy table of the workload's fields
    and print ``{"setup_s": ...}``.  cli-cold builds no field in the
    benchmark process, so its set-up is the import of ``bchforms.cli``
    that every call pays.

``child.py cli ARGV...``
    Run ``bchforms.cli.main(ARGV)`` as a shell user's call would, after
    installing the span wrappers when ``PERFBENCH_TRACE=1``.  The CLI's
    stdout is passed through untouched; one ``PERFBENCH {...}`` line on
    stderr reports when ``main`` started, this process's peak RSS and the
    spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import workloads


def setup(name: str) -> int:
    workload = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    if workload.cold:
        import bchforms.cli  # noqa: F401
    else:
        import bchforms  # noqa: F401
    workloads.build_fields(workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def cli(argv: list[str]) -> int:
    from bchforms import cli as bcli

    tracer = None
    main = bcli.main
    if os.environ.get("PERFBENCH_TRACE") == "1":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", bcli.main)
    main_ns = time.perf_counter_ns()
    rc = main(argv)
    sys.stdout.flush()
    report = {
        "main_ns": main_ns,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else None,
        "work": tracer.work if tracer else None,
    }
    print("PERFBENCH " + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(setup(rest[0]) if mode == "setup" else cli(rest))
