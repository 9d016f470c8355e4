"""Layer-attributed tracing from outside the program.

A :class:`Tracer` wraps the public entry points of each ``repro`` layer
(the table in :data:`HOOKS`) and records one span per call: name, start,
end, parent span and the job id the driving thread was working on.
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
Nothing under ``src/`` changes: functions are replaced on every loaded
``repro`` module that references them, methods on their class, and
:meth:`Tracer.uninstall` puts the originals back.

Pool workers are forked after :meth:`Tracer.install`, so they inherit
the wrappers, but their memory is lost when they exit.  In a worker the
wrappers therefore record into the program's own telemetry
(``repro.telemetry`` spans named ``bench:<span>`` and counters named
``bench:<counter>``), which ``repro.parallel.map_tasks`` ships back with
each task result and merges into the parent's trace.  The parent-side
wrapper of ``map_tasks`` reads what that call merged and keeps it on its
own span as ``remote`` work.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

_SEARCH_SPANS = {
    "greedy": "search.greedy",
    "exhaustive": "search.exact",
    "annealing": "search.anneal",
    "multi_start": "search.multi_start",
}


def _dfg_ops(args, result, before):
    return {"ir.ops": len(args[0].nodes)}


def _cgc_ops(args, result, before):
    return {"coarsegrain.ops": result.compute_ops + result.memory_ops}


def _fpga_partitions(args, result, before):
    return {"finegrain.partitions": result.partition_count}


def _interp_steps(args, result, before):
    return {"interp.steps": result.steps}


def _profile_misses(args):
    return args[0].stats.misses


def _profile_lookup(args, result, before):
    missed = args[0].stats.misses - before
    return {"interp.profile_lookups": 1, "interp.profile_hits": 1 - missed}


def _table_build(args, result, before):
    return {"partition.table_builds": 1}


def _visited(args):
    return args[0].visited_count


def _search_counts(args, result, before):
    name = _SEARCH_SPANS.get(args[0].algorithm, "search.other")
    counts = {"search.configs_visited": args[0].visited_count - before}
    if name == "search.exact":
        counts["search.exact_runs"] = 1
        counts["search.exact_certified"] = int(result.certified)
    return counts


def _search_name(args):
    return _SEARCH_SPANS.get(args[0].algorithm, "search.other")


def _map_tasks_count(args, result, before):
    return {"parallel.tasks": len(result[0])}


#: (module, attribute path, span name, pre-call reader, counter function).
#: The span name may be a callable of the call's arguments.  A counter
#: function receives (args, result, pre-call value) and returns counts.
HOOKS = (
    ("repro.explore.space", "WorkloadSpec.build", "workloads.build", None, None),
    ("repro.explore.space", "PlatformSpec.build", "platform.build", None, None),
    ("repro.frontend.parser", "parse_program", "frontend.parse", None, None),
    ("repro.frontend.semantic", "analyze_program", "frontend.semantic", None, None),
    ("repro.ir.lowering", "lower_program", "ir.lower", None, None),
    ("repro.ir.verify", "verify_cdfg", "ir.verify", None, None),
    ("repro.ir.cfg", "ControlFlowGraph.verify", "ir.verify", None, None),
    ("repro.ir.passes", "optimize_cdfg", "ir.optimize", None, None),
    ("repro.ir.dfg", "DataFlowGraph.__init__", "ir.dfg_build", None, _dfg_ops),
    ("repro.interp.compiler", "compile_cdfg", "interp.compile", None, None),
    ("repro.interp.interpreter", "Interpreter.run", "interp.profile", None,
     _interp_steps),
    ("repro.interp.cache", "ProfileCache.get_or_run", "interp.cache",
     _profile_misses, _profile_lookup),
    ("repro.partition.workload", "workload_from_cdfg", "partition.workload",
     None, None),
    ("repro.partition.comm", "kernel_communication", "partition.comm", None,
     None),
    ("repro.partition.packed", "PackedCostTable.from_model",
     "partition.price_table", None, _table_build),
    ("repro.coarsegrain.timing", "block_cgc_timing", "coarsegrain.schedule",
     None, _cgc_ops),
    ("repro.finegrain.timing", "block_fpga_timing", "finegrain.temporal", None,
     _fpga_partitions),
    ("repro.search.base", "Partitioner.run", _search_name, _visited,
     _search_counts),
    ("repro.serve.cache", "PricedTableCache.resolve", "serve.resolve", None,
     None),
    ("repro.parallel", "map_tasks", "parallel.map_tasks", None,
     _map_tasks_count),
    ("repro.explore.runner", "explore", "explore.run", None, None),
)

_REMOTE_PREFIX = "bench:"


class Span:
    """One recorded call (plain data, so the list dumps as JSON)."""

    __slots__ = (
        "name", "start", "end", "parent", "job", "thread", "counts",
        "remote", "remote_counts", "workers",
    )

    def __init__(self, name, start, parent, job, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.thread = thread
        self.counts: dict[str, int] = {}
        #: Self seconds per span name recorded in pool workers during
        #: this call (``parallel.map_tasks`` spans only).
        self.remote: dict[str, float] = {}
        self.remote_counts: dict[str, int] = {}
        self.workers = 1

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Installs the wrappers, records spans, and attributes time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._owner = os.getpid()
        self._restore: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Job attribution
    # ------------------------------------------------------------------
    def set_job(self, job) -> None:
        """Attribute the calling thread's next spans to ``job``."""
        self._local.job = job

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro import telemetry

        # Worker-side spans travel back only through telemetry.
        telemetry.set_enabled(True)
        for module_name, path, name, pre, counter in HOOKS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(raw.__func__, name, pre, counter)
                    )
                else:
                    wrapped = self._wrap(raw, name, pre, counter)
                self._restore.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(original, name, pre, counter)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._restore.append((loaded, key, original))
                        setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _wrap(self, fn, name, pre, counter):
        tracer = self
        is_map_tasks = name == "parallel.map_tasks"

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            before = pre(args) if pre is not None else None
            if os.getpid() != tracer._owner:
                return _record_remote(fn, span_name, counter, before, args, kwargs)
            stack = tracer._stack()
            span = Span(
                span_name,
                0.0,
                stack[-1] if stack else None,
                getattr(tracer._local, "job", None),
                threading.get_ident(),
            )
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            remote_before = _remote_totals() if is_map_tasks else None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result, before)
            if is_map_tasks:
                seconds, counts = _remote_totals()
                span.remote = _delta(seconds, remote_before[0])
                span.remote_counts = _delta(counts, remote_before[1])
                span.workers = max(1, result[1])
            return result

        traced.__wrapped__ = fn
        for attribute in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attribute, getattr(fn, attribute, None))
        return traced

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def self_seconds(self) -> list[float]:
        """Each span's duration minus its direct children's, with work
        merged back from pool workers credited at wall-clock rate (its
        worker-seconds divided by the workers the call used)."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        for index, span in enumerate(self.spans):
            if span.remote:
                own[index] -= sum(span.remote.values()) / span.workers
        return own

    def totals(self, jobs=None) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(work seconds, wall-credited seconds, counts) per span name,
        optionally restricted to spans of the given job ids.

        Work seconds add worker-process seconds in full; wall-credited
        seconds divide them by the workers that ran in parallel, so
        their sum reconciles with the parent's wall time.
        """
        work: dict[str, float] = defaultdict(float)
        wall: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        own = self.self_seconds()
        for index, span in enumerate(self.spans):
            if jobs is not None and span.job not in jobs:
                continue
            work[span.name] += own[index]
            wall[span.name] += own[index]
            counts[span.name + ".calls"] += 1
            for key, value in span.counts.items():
                counts[key] += value
            for key, value in span.remote.items():
                work[key] += value
                wall[key] += value / span.workers
            for key, value in span.remote_counts.items():
                counts[key] += value
        return dict(work), dict(wall), dict(counts)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def layer_of(span_name: str) -> str:
    """A span's layer: the ``repro`` module named before the first dot."""
    return span_name.split(".", 1)[0]


def _record_remote(fn, span_name, counter, before, args, kwargs):
    """Worker-process side: record through the program's telemetry."""
    from repro import telemetry

    with telemetry.span(_REMOTE_PREFIX + span_name):
        result = fn(*args, **kwargs)
    if counter is not None:
        for key, value in counter(args, result, before).items():
            telemetry.count(_REMOTE_PREFIX + key, value)
    telemetry.count(_REMOTE_PREFIX + span_name + ".calls")
    return result


def _remote_totals() -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and counters of every ``bench:`` span merged into
    the parent's telemetry so far (worker spans nest through program
    spans, which are transparent here)."""
    from repro import telemetry

    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)

    def visit(node, bench_parent):
        is_bench = node.name.startswith(_REMOTE_PREFIX)
        if is_bench:
            seconds[node.name[len(_REMOTE_PREFIX):]] += node.seconds
            if bench_parent is not None:
                seconds[bench_parent] -= node.seconds
            bench_parent = node.name[len(_REMOTE_PREFIX):]
        for key, value in node.counters.items():
            if key.startswith(_REMOTE_PREFIX):
                counts[key[len(_REMOTE_PREFIX):]] += value
        for child in node.children.values():
            visit(child, bench_parent)

    visit(telemetry.get_trace().root, None)
    return seconds, counts


def _delta(after: dict, before: dict) -> dict:
    delta = {key: value - before.get(key, 0) for key, value in after.items()}
    return {key: value for key, value in delta.items() if value}
