"""Spans around the public functions of each bchforms layer, installed
from outside the library.

A layer function is often imported by name into several modules
(``classify_quadratic`` lives in ``forms`` and is bound in ``oracle``,
``schemes``, ``weights``, ``verify``, ``cli`` and the package root), so
``install`` replaces every binding of the original object in every loaded
``bchforms`` module and ``uninstall`` puts each one back.  The kernels are
reached through ``kernels.<name>``, which is the binding in ``kernels``
itself.

Spans are kept in memory as ``(name, start_ns, end_ns, span_id,
parent_id)``.  The parent comes from a context variable; the oracle's
thread pool is swapped for one that runs each task in a copy of the
submitting context, so kernel spans in worker threads link to their
``trace_route_weights`` parent.  All times are ``time.perf_counter_ns``,
which is CLOCK_MONOTONIC on Linux and therefore comparable between the
benchmark and the CLI processes it starts.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# layer module -> public functions timed in it
TARGETS = {
    "gfarith": ("build_field",),
    "cyclotomic": ("code_params",),
    "kernels": ("eval_qvec", "coset_weight_counts", "coset_weight_table"),
    "oracle": ("trace_route_weights", "rank_type_census", "appendix_census"),
    "forms": ("classify_quadratic", "polarize", "bilinear_rank", "classify_symmetric"),
    "schemes": ("census_inner_distribution", "schmidt_for_family"),
    "weights": ("min_distance_even", "code_enumerator_odd", "appendix_frequency_tables"),
    "verify": ("run_suite",),
}

# lazy FieldContext tables: a span is recorded only when the table is built
LAZY_TABLES = {"trace_vec": "_trace_vec", "half_trace_vec": "_half_trace_vec"}


def _kernel_words(qv, trv2, pair, neg, counts) -> int:
    """Words histogrammed by one coset_weight_counts call: q^(m+1)."""
    return int(neg.shape[0]) * (int(qv.shape[0]) + 1)


# work counted where it happens, keyed by span name
WORK = {"kernels.coset_weight_counts": _kernel_words}

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar("perfbench_span", default=None)


class _ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int | None]] = []
        self.work: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = _current.get()
        token = _current.set(sid)
        t0 = time.perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = time.perf_counter_ns()
            _current.reset(token)
            self.spans.append((name, t0, t1, sid, parent))

    def wrap(self, name: str, fn):
        count_work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _current.get()
            sid = next(self._ids)
            token = _current.set(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                _current.reset(token)
                self.spans.append((name, t0, t1, sid, parent))
                if count_work is not None:
                    self.work[name] = self.work.get(name, 0) + count_work(*args, **kwargs)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def adopt(self, spans, work, parent: int, start_ns: int, main_ns: int) -> None:
        """Take over the spans of a CLI process under the span ``parent``,
        with a ``cli.process_start`` span from spawn to ``main``."""
        ids = {s[3]: next(self._ids) for s in spans}
        self.spans.append(("cli.process_start", start_ns, main_ns, next(self._ids), parent))
        for name, t0, t1, sid, up in spans:
            self.spans.append((name, t0, t1, ids[sid], ids.get(up, parent)))
        for name, n in work.items():
            self.work[name] = self.work.get(name, 0) + n

    # -- installing -----------------------------------------------------------

    def _replace_everywhere(self, orig, repl) -> int:
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bchforms" or modname.startswith("bchforms.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, repl)
                    self._undo.append((mod, attr, orig))
                    hits += 1
        return hits

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, names in TARGETS.items():
            mod = importlib.import_module(f"bchforms.{modname}")
            for fname in names:
                orig = getattr(mod, fname)
                if getattr(orig, "__wrapped_by_perfbench__", False):
                    raise RuntimeError(f"bchforms.{modname}.{fname} is already traced")
                self._replace_everywhere(orig, self.wrap(f"{modname}.{fname}", orig))
        gfarith = importlib.import_module("bchforms.gfarith")
        ctx_cls = gfarith.FieldContext
        for prop, slot in LAZY_TABLES.items():
            orig_prop = ctx_cls.__dict__[prop]
            setattr(ctx_cls, prop, property(self._lazy_table(f"gfarith.{prop}", orig_prop.fget, slot)))
            self._undo.append((ctx_cls, prop, orig_prop))
        if self._replace_everywhere(ThreadPoolExecutor, _ContextPool) == 0:
            raise RuntimeError("bchforms.oracle no longer binds ThreadPoolExecutor")

    def _lazy_table(self, name: str, fget, slot: str):
        traced = self.wrap(name, fget)

        def get(ctx):
            if getattr(ctx, slot, None) is not None:
                return fget(ctx)
            return traced(ctx)

        return get

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Self time of every span, in seconds, by a sweep over the timeline.

    At each instant the time goes to the innermost active spans (those
    with no active child).  In one thread that is a span's duration minus
    the time its children cover; when worker threads run children at the
    same time, the concurrent innermost spans share the instant.  The self
    times of a tree therefore add up to its root's duration.
    """
    by_id = {s[3]: s for s in spans}
    events = []
    for name, t0, t1, sid, parent in spans:
        events.append((t0, 1, sid))
        events.append((t1, 0, sid))
    events.sort()
    active_children: dict[int, int] = {}
    active: set[int] = set()
    leaves: set[int] = set()
    acc = dict.fromkeys(by_id, 0.0)
    last = None
    for t, is_start, sid in events:
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                acc[leaf] += share
        last = t
        parent = by_id[sid][4]
        parent_active = parent in active
        if is_start:
            active.add(sid)
            leaves.add(sid)
            active_children[sid] = 0
            if parent_active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent_active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return {sid: ns / 1e9 for sid, ns in acc.items()}


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and calls."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for name, t0, t1, sid, _ in spans:
        row = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += (t1 - t0) / 1e9
        row["self_s"] += own[sid]
        row["calls"] += 1
    return table
