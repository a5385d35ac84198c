"""Perf-contract tests: algorithmic invariants instead of timing.

Wall-clock benchmarks (``python -m repro perf``) drift with the machine;
these tests pin the *shape* of the hot paths with exact counters, so a
complexity regression (a cache that stops hitting, a queue scan that goes
quadratic, an allocator that re-heapifies) fails deterministically:

1. a warm report cache serves every job without a single ``DbtSystem.run``
   (the Tracer's ``dbt.runs`` counter stays at zero);
2. the alias-register queue performs at most ``live`` comparisons per
   check — the sorted-order index must never degrade to rescanning dead
   or earlier-order entries;
3. the integrated allocator's base-tracking heap does O(1) amortized work
   per memory operation: each op is pushed at most once, and pops never
   exceed pushes;
4. hot regions are served by memoized timing plans — re-executions along
   a seen path are plan *hits*, and disabling the machinery with
   ``SMARQ_NO_TIMING_PLANS=1`` changes nothing observable in the report;
5. every region execution lands on exactly one replay path
   (``vliw.backend_interp``/``kernel`` partition
   ``vliw.regions_executed``), the bench payload carries the schema-7
   per-cell backend summary, and the ``--fail-below`` regression gate
   trips on low speedups and on missing baselines;
6. replay codegen happens at most once per lowered trace on the cold
   path, and a content-identical clone with a warm artifact runs the
   kernel from its first execution without a single dispatch-loop run;
7. a finished job leaves nothing for the cyclic garbage collector: its
   whole object graph is freed by reference counting;
8. a job allocates little to begin with: a translation-cache hit clones
   a small, bounded object graph per region instruction, interpreting
   guest code builds nothing per pc, and the block-at-a-time profile
   equals the per-instruction one.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

import repro.smarq.allocator as allocator_mod
from repro.engine.cache import ReportCache
from repro.engine.core import ExecutionEngine
from repro.engine.instrumentation import Tracer
from repro.engine.jobs import JobSpec
from repro.frontend.interpreter import Interpreter, InterpreterLimit
from repro.frontend.profiler import HotnessProfiler, ProfilerConfig
from repro.frontend.program import GuestProgram
from repro.fuzz import generate_case
from repro.ir.instruction import Opcode, binop, branch, load, movi, store
from repro.sim.memory import Memory
from repro.sim.dbt import DbtSystem
from repro.workloads import make_benchmark

from tests.test_differential_alloc import integrated_allocation
from tests.test_property_smarq import program_body

SPEC = JobSpec(benchmark="art", scheme_key="smarq", scale=0.05)


class TestWarmCacheRunsNothing:
    def test_second_engine_serves_fully_from_cache(self, tmp_path):
        cold = Tracer()
        ExecutionEngine(cache=ReportCache(tmp_path), tracer=cold).run([SPEC])
        assert cold.counters.get("dbt.runs", 0) >= 1
        assert cold.counters.get("engine.cache_misses") == 1

        warm = Tracer()
        reports = ExecutionEngine(
            cache=ReportCache(tmp_path), tracer=warm
        ).run([SPEC])
        assert len(reports) == 1
        assert warm.counters.get("engine.cache_hits") == 1
        assert warm.counters.get("engine.cache_misses", 0) == 0
        assert warm.counters.get("dbt.runs", 0) == 0


class TestQueueComparisonBound:
    def test_comparisons_bounded_by_checks_times_live(self):
        """Every check compares at most the entries live at-or-after its
        own order; ``max_live`` upper-bounds that for all checks."""
        program = make_benchmark("art", scale=0.05)
        system = DbtSystem(
            program, "smarq", profiler_config=ProfilerConfig(hot_threshold=20)
        )
        system.run()
        stats = system.runtime._adapter.queue.stats
        total_checks = stats.checks + stats.exceptions
        assert stats.sets > 0, "workload never exercised the queue"
        assert total_checks > 0
        assert stats.max_live <= system.runtime._adapter.queue.num_registers
        assert stats.comparisons <= total_checks * stats.max_live


class TestAllocatorHeapIsLinear:
    @settings(max_examples=50, deadline=None)
    @given(body=program_body)
    def test_heap_traffic_linear_in_memory_ops(self, body):
        # Patched by hand (not the monkeypatch fixture) so each generated
        # example gets fresh counters under hypothesis.
        pushes = []
        pops = []
        real_push = allocator_mod.heappush
        real_pop = allocator_mod.heappop

        def counting_push(heap, item):
            pushes.append(item)
            real_push(heap, item)

        def counting_pop(heap):
            pops.append(heap[0])
            return real_pop(heap)

        allocator_mod.heappush = counting_push
        allocator_mod.heappop = counting_pop
        try:
            allocator, _result, _deps, _machine = integrated_allocation(body)
        finally:
            allocator_mod.heappush = real_push
            allocator_mod.heappop = real_pop
        mem_ops = allocator.stats.memory_ops
        # One push per op that ever becomes pending, plus one per AMOV
        # pseudo-op; never a re-heapify of the whole structure.
        budget = mem_ops + allocator.stats.amovs_inserted
        assert len(pushes) <= budget
        assert len(pops) <= len(pushes)


def _run_cell(benchmark="art", scheme="smarq", scale=0.05):
    tracer = Tracer()
    program = make_benchmark(benchmark, scale=scale)
    system = DbtSystem(
        program,
        scheme,
        profiler_config=ProfilerConfig(hot_threshold=20),
        tracer=tracer,
    )
    return system.run(), tracer


def _cyclic_garbage_of(job):
    """Objects the cyclic collector finds after ``job()`` runs with the
    collector off (what reference counting alone could not free)."""
    gc.collect()
    gc.disable()
    try:
        job()
        return gc.collect()
    finally:
        gc.enable()


class TestJobsLeaveNoCycles:
    """A finished ``DbtSystem.run`` is freed by reference counting.

    Two cycles used to leave every job's graph to the cyclic collector:
    the interpreter's per-pc handlers closed over the interpreter that
    holds them, and the dispatch loop kept the caught alias exception in
    a local, so its traceback pinned the frame and the job's whole stack.
    galgel/itanium takes an alias exception, so it locks the second fix
    separately from the first.
    """

    @pytest.mark.parametrize(
        "bench, scheme", [("art", "smarq"), ("galgel", "itanium")]
    )
    def test_second_job_leaves_no_cyclic_garbage(self, bench, scheme):
        _run_cell(bench, scheme)  # warm the process-wide caches
        assert _cyclic_garbage_of(lambda: _run_cell(bench, scheme)) == 0

    def test_cold_kernel_compiles_leave_no_cyclic_garbage(self):
        """ammp/smarq compiles kernels it later drops; a dropped kernel
        must not sit in a cycle with the globals dict it was built in."""
        import repro.sim.replay_backends as backends_mod

        _run_cell("ammp", "smarq")
        backends_mod.reset_artifact_cache()
        assert _cyclic_garbage_of(lambda: _run_cell("ammp", "smarq")) == 0

    def test_engine_job_with_a_report_cache_store_leaves_none(
        self, tmp_path
    ):
        """The whole engine funnel of a miss: simulate, then store the
        report (the store must not go through ``json.dump``'s pure
        Python encoder, whose closures form a cycle per call)."""
        ExecutionEngine(cache=ReportCache(tmp_path / "warm")).run([SPEC])
        cold = ExecutionEngine(cache=ReportCache(tmp_path / "cold"))
        assert _cyclic_garbage_of(lambda: cold.run([SPEC])) == 0

    def test_galgel_itanium_takes_an_alias_exception(self):
        report, _tracer = _run_cell("galgel", "itanium")
        assert report.alias_exceptions >= 1


def _tracked_growth(job):
    """Objects tracked by the collector that ``job()`` leaves alive, with
    the collector off so none is freed or untracked meanwhile."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = job()
        return len(gc.get_objects()) - before, result
    finally:
        gc.enable()


class TestJobsAllocateLittle:
    """The job path builds no throwaway per-job object graphs."""

    #: tracked objects a full-tier hit may clone per region instruction
    #: (an instruction, its attribute dict, its operand tuples and its
    #: share of the schedule and the check pairs). A clone of the whole
    #: optimizer state (allocator, dependence set, alias analysis) took
    #: 8-47 per instruction.
    CLONE_OBJECTS_PER_INSTRUCTION = 7

    def test_full_tier_hit_clones_a_small_graph(self, monkeypatch):
        from repro.opt.translation_cache import (
            get_translation_cache,
            reset_translation_cache,
        )

        monkeypatch.delenv("SMARQ_NO_TRANSLATION_CACHE", raising=False)
        reset_translation_cache()
        try:
            for bench in ("art", "galgel", "pchase"):
                for scheme in ("smarq", "itanium", "efficeon", "none"):
                    _run_cell(bench, scheme)
            cache = get_translation_cache()
            keys = list(cache._full)
            assert len(keys) >= 10
            tracer = Tracer()
            for key in keys:
                grown, region = _tracked_growth(
                    lambda: cache.get_translation(key, tracer)
                )
                assert grown <= (
                    self.CLONE_OBJECTS_PER_INSTRUCTION * len(region.block)
                ), (key[4][0], len(region.block), grown)
        finally:
            reset_translation_cache()

    @staticmethod
    def _straight_line(length):
        """Setup, then ``length`` ALU/memory ops with no branch, then
        EXIT: one basic block, interpreted once."""
        insts = [movi(1, 0x100), movi(2, 1)]
        for i in range(length):
            if i % 3:
                insts.append(binop(Opcode.ADD, 2, 2, 2))
            else:
                insts.append(store(1, 2, disp=8 * (i % 16)))
                insts.append(load(3, 1, disp=8 * (i % 16)))
        insts.append(branch(Opcode.EXIT, 0))
        return GuestProgram(
            name=f"line{length}",
            instructions=insts,
            region_map={"a": (0x100, 256)},
        )

    def test_interpretation_builds_nothing_per_pc(self):
        def growth(length):
            system = DbtSystem(self._straight_line(length), "smarq")
            grown, report = _tracked_growth(system.run)
            assert report.guest_instructions > length
            return grown

        growth(10)  # warm lazy imports and module-level caches
        short, long = growth(200), growth(4000)
        assert long <= short + 4, (short, long)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_block_profile_equals_instruction_profile(self, seed):
        """Observing one basic block per ``run_until`` call (the DBT
        loop's slow path) counts exactly what observing every pc does."""
        program = generate_case(seed).program()
        budget = 20_000

        reference = HotnessProfiler(program)
        interp = Interpreter(program, Memory(program.memory_size() + 4096))
        interp.trace_hook = reference.observe
        try:
            interp.run(max_steps=budget)
        except InterpreterLimit:  # compare the equal-length prefix
            pass

        # An unreachable hot threshold keeps everything interpreted.
        system = DbtSystem(
            program,
            "smarq",
            profiler_config=ProfilerConfig(hot_threshold=budget + 1),
        )
        system.run(max_guest_steps=interp.stats.instructions)
        assert system.interpreter.stats.instructions == (
            interp.stats.instructions
        )
        assert system.profiler.block_counts == reference.block_counts
        assert system.profiler.edge_counts == reference.edge_counts
        assert system.profiler._last_pc == reference._last_pc


class TestCollectorCounters:
    """The collector's counters are exposed, never tuned."""

    def _assert_shape(self, gc_stats):
        assert set(gc_stats) == {"collections", "collected", "uncollectable"}
        assert len(gc_stats["collections"]) == len(gc.get_stats())

    def test_engine_stats_print_the_collector_line(self):
        from repro.engine.instrumentation import collector_stats

        self._assert_shape(collector_stats())
        engine = ExecutionEngine()
        engine.run([SPEC])
        lines = engine.render_stats().splitlines()
        collector = [ln for ln in lines if ln.startswith("collector ")]
        assert len(collector) == 1

    def test_serve_stats_carry_the_collector(self):
        from repro.serve import (
            RemoteEngine,
            ServeClient,
            ServeConfig,
            running_server,
        )

        with running_server(ServeConfig(cache=False)) as server:
            with ServeClient(server.address) as client:
                assert client.submit([SPEC]).failed == 0
                self._assert_shape(client.stats()["gc"])
                text = RemoteEngine(client).render_stats()
        assert "\ncollector             : " in text


class TestTimingPlansAreMemoized:
    def test_hot_workload_hits_plans(self):
        """A hot region re-executes thousands of times along few paths:
        the plan cache must serve almost every execution as a hit."""
        _report, tracer = _run_cell()
        hits = tracer.counters.get("vliw.plan_hits", 0)
        misses = tracer.counters.get("vliw.plan_misses", 0)
        executed = tracer.counters.get("vliw.regions_executed", 0)
        assert executed > 0, "workload never executed a translated region"
        assert hits >= 1
        # every planned execution is exactly one lookup
        assert hits + misses == executed
        # distinct signatures (misses) stay far below executions
        assert misses < executed / 2

    def test_kill_switch_report_is_identical(self, monkeypatch):
        """``SMARQ_NO_TIMING_PLANS=1`` must be purely a perf toggle: the
        fully interpreted scoreboard loop yields a field-identical
        report and fires no plan machinery."""
        baseline, _ = _run_cell()
        monkeypatch.setenv("SMARQ_NO_TIMING_PLANS", "1")
        interpreted, tracer = _run_cell()
        assert tracer.counters.get("vliw.plan_hits", 0) == 0
        assert tracer.counters.get("vliw.plan_misses", 0) == 0
        assert interpreted == baseline  # DbtReport dataclass equality


class TestBackendTiersPartitionExecutions:
    def test_every_region_execution_is_counted_on_one_tier(self):
        """The two path counters must account for every region entry:
        unplanned scoreboard runs, the dispatch loop and escaped kernel
        iterations (re-run on the dispatch loop) are ``interp``; kernel
        runs are ``kernel``, one count per looped iteration (each is a
        full region execution)."""
        _report, tracer = _run_cell()
        c = tracer.counters
        executed = c.get("vliw.regions_executed", 0)
        paths = c.get("vliw.backend_interp", 0) + c.get(
            "vliw.backend_kernel", 0
        )
        assert executed > 0
        assert paths == executed
        # a hot cell must actually reach the kernel
        assert c.get("vliw.backend_kernel", 0) > 0


class TestKernelCodegen:
    """One kernel per hot trace: codegen is paid once, then shared."""

    def test_compiles_at_most_once_per_lowered_trace(self, monkeypatch):
        import repro.sim.replay_backends as backends_mod
        import repro.sim.vliw as vliw_mod

        backends_mod.reset_artifact_cache()
        calls = {"lower": 0, "compile": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            vliw_mod, "_lower_trace", counting("lower", vliw_mod._lower_trace)
        )
        for attr in ("compile_py", "compile_vec", "compile_batch"):
            monkeypatch.setattr(
                backends_mod, attr,
                counting("compile", getattr(backends_mod, attr)),
            )
        try:
            for benchmark in ("art", "equake", "pchase"):
                for scheme in ("smarq", "itanium", "none"):
                    _run_cell(benchmark, scheme)
        finally:
            backends_mod.reset_artifact_cache()
        assert calls["compile"] >= 1
        assert calls["compile"] <= calls["lower"], calls

    def test_warm_clone_adopts_kernel_at_first_execution(self):
        from repro.ir.instruction import Opcode, binop, branch, movi, store
        from repro.ir.superblock import Superblock
        from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
        from repro.sched.machine import MachineModel
        from repro.sim.memory import Memory
        from repro.sim.replay_backends import reset_artifact_cache
        from repro.sim.schemes import SmarqAdapter
        from repro.sim.vliw import _KERNEL_THRESHOLD, VliwSimulator

        machine = MachineModel()

        def translate():
            block = Superblock(entry_pc=0, instructions=[
                movi(1, 0x100), movi(2, 9), store(1, 2),
                binop(Opcode.ADD, 4, 2, 2), branch(Opcode.BR, 0),
            ])
            return OptimizationPipeline(machine, OptimizerConfig()).optimize(
                block
            )

        reset_artifact_cache()
        region_a, region_b = translate(), translate()
        assert region_a is not region_b
        assert region_a._replay_key == region_b._replay_key
        tracer = Tracer()
        sim = VliwSimulator(machine, Memory(4096), tracer=tracer)

        def execute(region):
            out = sim.execute_region(region, SmarqAdapter(64), [0] * 64)
            assert out.status == "commit"

        try:
            for _ in range(_KERNEL_THRESHOLD):
                execute(region_a)
            cold = dict(tracer.counters)
            assert cold.get("vliw.kernel_compiles") == 1
            for _ in range(5):
                execute(region_b)
            warm = tracer.counters
        finally:
            reset_artifact_cache()

        def delta(name):
            return warm.get(name, 0) - cold.get(name, 0)

        assert delta("vliw.backend_interp") == 0
        assert delta("vliw.backend_kernel") == 5
        assert delta("vliw.kernel_compiles") == 0
        assert delta("vliw.kernel_cache_hits") == 1


class TestBenchSchema:
    def test_cells_carry_backend_summary(self):
        from repro.perf import PerfConfig, run_perf
        from repro.sim.replay_backends import reset_artifact_cache

        # earlier tests may have warmed the process-wide artifact cache,
        # which would hide the kernel compile this asserts on
        reset_artifact_cache()
        config = PerfConfig(
            benchmarks=["art"], schemes=["smarq"], scale=0.05,
            repeats=1, figures_scale=None,
        )
        payload = run_perf(config)
        assert payload["bench_schema"] == 7
        assert "batch_flavor" not in payload
        cell = payload["cells"]["art/smarq"]
        backends = cell["backends"]
        executed = cell["counters"]["vliw.regions_executed"]
        assert backends["interp"] + backends["kernel"] == executed
        assert 0.0 < backends["kernel_share"] <= 1.0
        assert backends["kernel_compiles"] >= 1
        # schema 6: per-phase spread is reported alongside the medians
        spread = cell["spread"]
        assert set(spread["phases"]) == set(cell["phases"])
        for stats in spread["phases"].values():
            assert {"mean_s", "std_s", "median_s"} <= set(stats)


class TestRegressionGate:
    def test_trips_below_threshold_only(self):
        from repro.perf import check_regression

        payload = {"speedup": {"execute_phase": 1.20, "total_cells": 0.90}}
        assert check_regression(payload, 0.95) == [
            "total_cells: 0.90x < 0.95x"
        ]
        assert check_regression(payload, 0.85) == []

    def test_missing_baseline_fails_closed(self):
        from repro.perf import check_regression

        failures = check_regression({}, 0.95)
        assert len(failures) == 2
        assert all("not computed" in f for f in failures)


class TestServeWarmState:
    """The daemon's warm-state contracts, observed via the stats endpoint."""

    BATCH = [
        JobSpec(benchmark=b, scheme_key=s, scale=0.05)
        for b in ("art", "swim")
        for s in ("smarq", "none")
    ]

    def test_repeat_batch_is_all_memo_hits(self):
        from repro.serve import ServeClient, ServeConfig, running_server

        with running_server(ServeConfig(cache=False)) as server:
            with ServeClient(server.address) as client:
                first = client.submit(self.BATCH)
                assert first.failed == 0
                assert all(r.via == "run" for r in first.results)
                second = client.submit(self.BATCH)
                assert second.failed == 0
                assert all(r.via == "memo" for r in second.results)
                assert all(r.from_cache for r in second.results)
                stats = client.stats()
        assert stats["memo"]["hits"] == len(self.BATCH)
        # the memo served the repeat; the engine never saw it
        assert stats["engine"]["jobs"] == len(self.BATCH)

    def test_repeat_batch_recompiles_nothing(self):
        """With the memo *and* report cache disabled, the repeat batch
        re-executes through the engine — and the warm process-wide tiers
        must absorb all of it: zero new translation-cache misses, zero
        new replay-IR compiles, zero new timing-plan compiles."""
        from repro.serve import ServeClient, ServeConfig, running_server

        with running_server(
            ServeConfig(cache=False, memo_limit=0)
        ) as server:
            with ServeClient(server.address) as client:
                assert client.submit(self.BATCH).failed == 0
                cold = client.stats()["counters"]
                assert client.submit(self.BATCH).failed == 0
                warm = client.stats()["counters"]

        assert warm["dbt.runs"] == 2 * len(self.BATCH)
        for counter in ("translate.cache_misses", "vliw.kernel_compiles"):
            assert warm.get(counter, 0) == cold.get(counter, 0), counter
        # every kernel the repeat batch ran was adopted from the
        # process-wide artifact cache (no fresh codegen)
        assert warm.get("vliw.kernel_cache_hits", 0) > cold.get(
            "vliw.kernel_cache_hits", 0
        )
        # and the repeat batch really was served by those warm caches
        assert (
            warm["translate.cache_hits"] > cold["translate.cache_hits"]
        )

    def test_concurrent_duplicates_coalesce_to_one_simulation(self):
        import threading

        from repro.serve import ServeClient, ServeConfig, running_server

        # Slow enough (~1s) that the second submission lands while the
        # first is still in flight.
        spec = JobSpec(benchmark="art", scheme_key="smarq", scale=0.4)
        with running_server(ServeConfig(cache=False)) as server:
            outcomes = {}

            def submit(name):
                with ServeClient(server.address) as client:
                    outcomes[name] = client.submit([spec])

            threads = [
                threading.Thread(target=submit, args=(n,))
                for n in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(server.address) as client:
                stats = client.stats()

        reports = [
            outcomes[n].results[0].report.to_dict() for n in ("a", "b")
        ]
        assert reports[0] == reports[1]
        # one submission simulated; the other attached to it in flight
        # (or, worst case under scheduler delay, hit the memo)
        assert stats["counters"]["dbt.runs"] == 1
        assert stats["jobs"]["dedup_hits"] + stats["memo"]["hits"] == 1
