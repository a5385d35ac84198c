"""Lightweight counters and per-phase wall-clock timing.

A :class:`Tracer` is threaded through :class:`~repro.sim.dbt.DbtSystem`,
:class:`~repro.sim.runtime.DynamicOptimizationRuntime` and
:class:`~repro.sim.vliw.VliwSimulator`; each simulation job gets its own
instance and the engine merges the snapshots afterwards. The default
:class:`NullTracer` makes every hook a no-op so uninstrumented runs pay
(almost) nothing.

Counter names used by the simulation stack:

``dbt.runs``
    completed :meth:`DbtSystem.run` invocations (the number the warm-cache
    acceptance check asserts is zero);
``runtime.translations`` / ``runtime.reoptimizations``
    region (re)translation counts;
``runtime.alias_exceptions`` / ``runtime.false_positive_exceptions``
    alias-exception rates;
``vliw.regions_executed``
    translated-region entries;
``vliw.plan_hits`` / ``vliw.plan_misses``
    timing-plan replay signatures served in O(1) vs first-seen (a miss
    consults the compiled cumulative plan once, then memoizes);
``vliw.plan_compiles``
    per-trace cumulative timing-plan compilations (at most one per
    compiled region trace);
``vliw.plan_invalidations``
    translations whose cached trace + plans were dropped on
    re-optimization or blacklisting;
``vliw.backend_interp`` / ``vliw.backend_kernel``
    region executions per replay path (the generic dispatch loop and
    the compiled kernel; counted only while a real tracer is installed
    — they are observability counters, not report fields; the two
    partition ``vliw.regions_executed``);
``vliw.kernel_compiles``
    kernels compiled from lowered replay IR (at most one per lowered
    trace and shared artifact);
``vliw.kernel_cache_hits``
    timing plans that adopted a kernel already compiled into the
    process-wide artifact cache (content-identical region clones
    sharing lowered IR + kernel; no codegen ran for them);
``vliw.kernel_loop_iterations``
    back-edge iterations a self-looping region committed inside one
    kernel call before its final iteration (each also counts once in
    ``vliw.backend_kernel``);
``vliw.kernel_escapes``
    kernel iterations that hit a runtime fact outside the static model
    and re-ran on the dispatch loop (traces that keep escaping early
    are demoted to it for good);
``translate.cache_hits`` / ``translate.cache_misses``
    full-translation lookups in the content-keyed translation cache (a
    hit clones a previously optimized region instead of re-optimizing);
``translate.cache_stores``
    optimized regions serialized into the translation cache;
``translate.elim_hits`` / ``translate.deps_hits``
    stage-memo hits inside a full-translation miss: the elimination
    blob and the base memory dependences reused from an earlier
    translation of the same content (each has a matching ``*_misses``
    counter);
``translate.persist_hits`` / ``translate.persist_misses`` /
``translate.persist_stores``
    persistent-tier traffic (opt-in, see
    :mod:`repro.opt.translation_cache`).

Phase names: ``run`` (whole DBT loop), ``optimize`` (translation +
scheduling + allocation), ``execute`` (translated-region simulation).
Inside ``optimize`` the pipeline times its sub-phases:
``optimize.constraints`` (alias analysis, eliminations, dependence
derivation), ``optimize.ddg`` (dependence-graph build), ``optimize.schedule``
(list scheduling including the allocator hook), ``optimize.alloc`` (the
allocator-hook share of scheduling, accumulated via :meth:`Tracer.add_time`
— a subset of ``optimize.schedule``, not additive with it) and
``optimize.cache`` (translation-cache fingerprinting and blob (de)serialization).

:func:`collector_stats` reads the cyclic garbage collector's own
process-lifetime counters (``gc.get_stats()``: a plain read, no callbacks,
no overhead). A finished job is freed by reference counting, so the
``collected`` count should stay flat from job to job; a count that climbs
per job means some job state sits in a reference cycle again.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping


class Tracer:
    """Accumulates named counters and per-phase wall time (seconds)."""

    __slots__ = ("counters", "timings")

    #: False on :class:`NullTracer`; hot paths consult it before paying
    #: for per-event ``perf_counter`` bracketing that would be discarded.
    active = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timings: Dict[str, float] = {}

    # -- counters ------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- phases --------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.timings[name] = self.timings.get(name, 0.0) + elapsed

    def add_time(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into a phase total (for
        callers that accumulate many tiny intervals and report once)."""
        self.timings[name] = self.timings.get(name, 0.0) + seconds

    # -- aggregation ---------------------------------------------------
    def merge(
        self,
        counters: Mapping[str, int],
        timings: Mapping[str, float],
    ) -> None:
        """Fold another tracer's snapshot into this one."""
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in timings.items():
            self.timings[name] = self.timings.get(name, 0.0) + value

    def snapshot(self) -> Dict[str, dict]:
        return {"counters": dict(self.counters), "timings": dict(self.timings)}


class NullTracer(Tracer):
    """Tracer whose hooks do nothing (the default everywhere)."""

    active = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        yield

    def add_time(self, name: str, seconds: float) -> None:
        pass


#: shared default instance; safe because it keeps no state
NULL_TRACER = NullTracer()


def collector_stats() -> Dict[str, Any]:
    """The cyclic collector's counters since process start: collections
    per generation (youngest first), and objects collected and found
    uncollectable, summed over generations."""
    generations = gc.get_stats()
    return {
        "collections": [g["collections"] for g in generations],
        "collected": sum(g["collected"] for g in generations),
        "uncollectable": sum(g["uncollectable"] for g in generations),
    }


def render_collector(stats: Mapping[str, Any]) -> str:
    """The ``collector :`` line of both ``--stats`` renderers."""
    collections = "/".join(str(n) for n in stats.get("collections", ()))
    return (
        f"collector             : {collections or 0} collections "
        f"(gen 0/1/2), {stats.get('collected', 0)} collected, "
        f"{stats.get('uncollectable', 0)} uncollectable"
    )
