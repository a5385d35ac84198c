"""Span recording around the program's public functions, from outside.

A traced program process (see ``traced.py``) installs :func:`install`,
which replaces each function in :data:`TARGETS` with a wrapper that
records one span per call: name, start, end, parent span and job id.
Spans live in memory as flat arrays and are written once, when the
process ends, by :meth:`SpanRecorder.dump`. The benchmark process reads
them back with :func:`load` and turns them into per-layer metrics with
:func:`layer_metrics`.

Each target is wrapped where its callers look it up: a module-level
function is replaced in every ``repro.*`` module that holds it (so
``repro.opt.pipeline.certify_region`` and ``repro.sim.vliw._lower_trace``
are both covered), a method on its class.

Times come from :func:`time.perf_counter`, which is the system-wide
monotonic clock on Linux, so spans from a child process and timestamps
taken in the benchmark process share one time base.

The ``hw`` alias-register models are inlined into generated replay
kernels and have no call boundary to wrap; they are billed to
``sim.execute_s`` until the program records its own spans.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (module, attribute path) of every wrapped function; the path is
#: ``func`` or ``Class.method``, and the span name is ``module.path``.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads.specfp", "make_benchmark"),
    ("repro.engine.jobs", "execute_job"),
    ("repro.sim.dbt", "DbtSystem.run"),
    ("repro.frontend.interpreter", "Interpreter.step"),
    ("repro.frontend.interpreter", "Interpreter.run_until"),
    ("repro.frontend.region", "RegionFormer.form"),
    ("repro.opt.pipeline", "OptimizationPipeline.optimize"),
    ("repro.opt.pipeline", "OptimizationPipeline.record_alias"),
    ("repro.opt.translation_cache", "TranslationCache.get_translation"),
    ("repro.opt.translation_cache", "TranslationCache.store_translation"),
    ("repro.opt.translation_cache", "TranslationCache.get_stage"),
    ("repro.analysis.dependence", "compute_dependences"),
    ("repro.analysis.certify", "certify_region"),
    ("repro.analysis.certify", "check_certificate"),
    ("repro.sched.list_scheduler", "ListScheduler.prepare"),
    ("repro.sched.list_scheduler", "ListScheduler.schedule"),
    ("repro.smarq.allocator", "SmarqAllocator.speculation_allowed"),
    ("repro.smarq.allocator", "SmarqAllocator.on_scheduled"),
    ("repro.smarq.allocator", "SmarqAllocator.on_finish"),
    ("repro.sim.replay_ir", "lower_trace"),
    ("repro.sim.replay_backends", "compile_py"),
    ("repro.sim.replay_backends", "compile_vec"),
    ("repro.sim.replay_backends", "compile_batch"),
    ("repro.sim.vliw", "VliwSimulator.execute_region"),
    ("repro.sim.vliw", "VliwSimulator.execute_region_batch"),
    ("repro.sim.runtime", "DynamicOptimizationRuntime.interpret_through_region"),
)

#: span names that start a job: a span under none of them has job id 0
JOB_SPANS = ("repro.engine.jobs.execute_job", "repro.sim.dbt.DbtSystem.run")

#: span name of the bootstrap's own ``import repro.cli``
IMPORT_SPAN = "repro.cli.<import>"


# ----------------------------------------------------------------------
# Counting hooks: what a span's return value says about the work done
# ----------------------------------------------------------------------
def _count_hit(counts, _args, result, _before) -> None:
    counts["hit"] += result is not None


def _count_batch(counts, _args, result, _before) -> None:
    outcome, _loop, batched = result
    counts["batched_commits"] += batched
    counts["commits"] += batched + (outcome.status == "commit")


def _count_commit(counts, _args, result, _before) -> None:
    counts["commits"] += result.status == "commit"


def _count_step(counts, _args, _result, _before) -> None:
    counts["steps"] += 1


def _instructions(args) -> int:
    return args[0].stats.instructions


def _count_run_until(counts, args, _result, before) -> None:
    counts["steps"] += _instructions(args) - before


#: span name -> (pre-call probe or None, post-call counter)
HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "repro.opt.translation_cache.TranslationCache.get_translation": (None, _count_hit),
    "repro.opt.translation_cache.TranslationCache.get_stage": (None, _count_hit),
    "repro.sim.vliw.VliwSimulator.execute_region_batch": (None, _count_batch),
    "repro.sim.vliw.VliwSimulator.execute_region": (None, _count_commit),
    "repro.frontend.interpreter.Interpreter.step": (None, _count_step),
    "repro.frontend.interpreter.Interpreter.run_until": (_instructions, _count_run_until),
}


class SpanRecorder:
    """Spans of one process, kept as flat arrays until :meth:`dump`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        #: span name -> counter name -> value, from :data:`HOOKS`
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._jobs = 0

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _open(self, name_id: int, starts_job: bool) -> int:
        """Allocate a span under the thread's innermost open span."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        job = getattr(local, "job", 0)
        with self._lock:
            span = len(self.name)
            self.name.append(name_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            if starts_job and job == 0:
                self._jobs += 1
                job = self._jobs
            self.job.append(job)
        stack.append(span)
        local.job = job
        return span

    def wrap(self, name: str, func: Callable) -> Callable:
        name_id = self.name_id(name)
        starts_job = name in JOB_SPANS
        probe, counter = HOOKS.get(name, (None, None))
        counts = self.counts[name]
        clock = time.perf_counter
        local = self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            outer_job = getattr(local, "job", 0)
            span = self._open(name_id, starts_job)
            before = probe(args) if probe is not None else None
            self.start[span] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[span] = clock()
                local.stack.pop()
                local.job = outer_job
            if counter is not None:
                counter(counts, args, result, before)
            return result

        return traced

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished root span measured by the caller."""
        name_id = self.name_id(name)
        with self._lock:
            self.name.append(name_id)
            self.start.append(start)
            self.end.append(end)
            self.parent.append(-1)
            self.job.append(0)

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "counts": {k: dict(v) for k, v in self.counts.items() if v},
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.job):
                column.tofile(out)


def install(recorder: SpanRecorder) -> None:
    """Wrap every :data:`TARGETS` entry."""
    for module_name, path in TARGETS:
        module = sys.modules.get(module_name) or __import__(
            module_name, fromlist=["_"]
        )
        name = f"{module_name}.{path}"
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, recorder.wrap(name, original))
        else:
            original = getattr(module, attr)
            replacement = recorder.wrap(name, original)
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "") or ""
                if other_name != "repro" and not other_name.startswith("repro."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, replacement)


# ----------------------------------------------------------------------
# Reading spans back and turning them into layer metrics
# ----------------------------------------------------------------------
class Spans:
    """Spans read back from one or more dumps, as plain lists."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.job: List[int] = []
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def extend(self, names, start, end, parent, job, counts=None) -> None:
        """Append one process's spans; span and job ids are rebased so
        that ids from different processes stay distinct."""
        base = len(self.names)
        job_base = max(self.job, default=0)
        self.names.extend(names)
        self.start.extend(start)
        self.end.extend(end)
        self.parent.extend(p + base if p >= 0 else -1 for p in parent)
        self.job.extend(j + job_base if j > 0 else 0 for j in job)
        for span_name, values in (counts or {}).items():
            for key, value in values.items():
                self.counts[span_name][key] += value


def load(path: str) -> Spans:
    """Spans from one :meth:`SpanRecorder.dump` file."""
    spans = Spans()
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        count = header["count"]
        columns = []
        for typecode in ("i", "d", "d", "q", "q"):
            column = array(typecode)
            column.fromfile(src, count)
            columns.append(column)
    table = header["names"]
    spans.extend(
        [table[i] for i in columns[0]], columns[1], columns[2], columns[3],
        columns[4], header.get("counts"),
    )
    return spans


def self_times(spans: Spans) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Children run on the parent's thread and inside its interval, so the
    part of the parent they cover is exactly the sum of their durations.
    """
    own = [end - start for start, end in zip(spans.start, spans.end)]
    for index, parent in enumerate(spans.parent):
        if parent >= 0:
            own[parent] -= spans.end[index] - spans.start[index]
    return own


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def unattributed(spans: Spans, window: Tuple[float, float]) -> float:
    """Seconds of ``window`` that no root span covers."""
    low, high = window
    roots = (
        (max(s, low), min(e, high))
        for s, e, p in zip(spans.start, spans.end, spans.parent)
        if p < 0 and e > low and s < high
    )
    return (high - low) - covered(roots)


#: per-layer time metric -> span names whose self time it sums
SELF_TIME_LAYERS: Dict[str, Sequence[str]] = {
    "workloads.build_s": ("repro.workloads.specfp.make_benchmark",),
    "frontend.interpret_s": (
        "repro.frontend.interpreter.Interpreter.step",
        "repro.frontend.interpreter.Interpreter.run_until",
    ),
    "frontend.form_s": ("repro.frontend.region.RegionFormer.form",),
    "opt.optimize_s": (
        "repro.opt.pipeline.OptimizationPipeline.optimize",
        "repro.opt.pipeline.OptimizationPipeline.record_alias",
        "repro.opt.translation_cache.TranslationCache.get_translation",
        "repro.opt.translation_cache.TranslationCache.get_stage",
    ),
    "opt.tc_store_s": ("repro.opt.translation_cache.TranslationCache.store_translation",),
    "analysis.deps_s": ("repro.analysis.dependence.compute_dependences",),
    "analysis.certify_s": (
        "repro.analysis.certify.certify_region",
        "repro.analysis.certify.check_certificate",
    ),
    "sched.prepare_s": ("repro.sched.list_scheduler.ListScheduler.prepare",),
    "sched.schedule_s": ("repro.sched.list_scheduler.ListScheduler.schedule",),
    "smarq.alloc_s": (
        "repro.smarq.allocator.SmarqAllocator.speculation_allowed",
        "repro.smarq.allocator.SmarqAllocator.on_scheduled",
        "repro.smarq.allocator.SmarqAllocator.on_finish",
    ),
    "sim.lower_s": ("repro.sim.replay_ir.lower_trace",),
    "sim.codegen_s": (
        "repro.sim.replay_backends.compile_py",
        "repro.sim.replay_backends.compile_vec",
        "repro.sim.replay_backends.compile_batch",
    ),
    "sim.execute_s": (
        "repro.sim.vliw.VliwSimulator.execute_region",
        "repro.sim.vliw.VliwSimulator.execute_region_batch",
    ),
}

#: inclusive-time metrics: the span and everything under it
INCLUSIVE_LAYERS: Dict[str, Sequence[str]] = {
    # interpretation after an abort; its run_until child is also part
    # of frontend.interpret_s
    "sim.abort_interp_s": (
        "repro.sim.runtime.DynamicOptimizationRuntime.interpret_through_region",
    ),
}

#: per-layer count metric -> span names whose calls it counts
CALL_COUNTS: Dict[str, Sequence[str]] = {
    "frontend.regions_formed": ("repro.frontend.region.RegionFormer.form",),
    "opt.optimize_calls": ("repro.opt.pipeline.OptimizationPipeline.optimize",),
    "opt.reopt_calls": ("repro.opt.pipeline.OptimizationPipeline.record_alias",),
    "sim.codegen_calls": SELF_TIME_LAYERS["sim.codegen_s"],
    "sim.region_execs": SELF_TIME_LAYERS["sim.execute_s"],
}


def layer_metrics(spans: Spans, units: int) -> Dict[str, float]:
    """Per-layer metrics, each time and count per unit of work.

    ``units`` is the number of work units the spans cover (figures
    commands, ``repro run`` processes, or serve jobs); ratios are not
    divided, and ``cli.import_s`` is per program process.
    """
    units = max(1, units)
    own = self_times(spans)
    by_name_self: Dict[str, float] = defaultdict(float)
    by_name_total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for name, start, end, mine in zip(spans.names, spans.start, spans.end, own):
        by_name_self[name] += mine
        by_name_total[name] += end - start
        calls[name] += 1

    def total(table, names):
        return sum(table[n] for n in names)

    metrics: Dict[str, float] = {}
    for metric, names in SELF_TIME_LAYERS.items():
        metrics[metric] = total(by_name_self, names) / units
    # paid once per program process, not per unit of work
    imports = calls[IMPORT_SPAN]
    metrics["cli.import_s"] = by_name_self[IMPORT_SPAN] / imports if imports else 0.0
    for metric, names in INCLUSIVE_LAYERS.items():
        metrics[metric] = total(by_name_total, names) / units
    for metric, names in CALL_COUNTS.items():
        metrics[metric] = total(calls, names) / units

    counts = spans.counts
    steps = sum(counts[n]["steps"] for n in SELF_TIME_LAYERS["frontend.interpret_s"])
    metrics["frontend.steps"] = steps / units

    tc_calls = calls["repro.opt.translation_cache.TranslationCache.get_translation"]
    tc_hits = counts["repro.opt.translation_cache.TranslationCache.get_translation"]["hit"]
    metrics["opt.tc_hit_ratio"] = tc_hits / tc_calls if tc_calls else 0.0
    stage_calls = calls["repro.opt.translation_cache.TranslationCache.get_stage"]
    stage_hits = counts["repro.opt.translation_cache.TranslationCache.get_stage"]["hit"]
    metrics["opt.stage_hit_ratio"] = stage_hits / stage_calls if stage_calls else 0.0

    traces = calls["repro.sim.replay_ir.lower_trace"]
    codegen = total(calls, SELF_TIME_LAYERS["sim.codegen_s"])
    metrics["sim.compiles_per_trace"] = codegen / traces if traces else 0.0

    commits = sum(counts[n]["commits"] for n in SELF_TIME_LAYERS["sim.execute_s"])
    batched = sum(counts[n]["batched_commits"] for n in SELF_TIME_LAYERS["sim.execute_s"])
    execute = total(by_name_self, SELF_TIME_LAYERS["sim.execute_s"])
    metrics["sim.execute_us_per_commit"] = execute / commits * 1e6 if commits else 0.0
    metrics["sim.batched_commit_ratio"] = batched / commits if commits else 0.0
    return metrics
