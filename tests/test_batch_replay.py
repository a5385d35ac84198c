"""Looped replay kernel tests: N looped iterations ≡ N single ones.

Each hot trace compiles into one kernel (see
:mod:`repro.sim.replay_backends`) whose body sits inside an iteration
loop: a self-looping region runs up to ``_KERNEL_WIDTH`` iterations per
call. These tests pin its contract:

* reports are byte-identical to the ``interp`` oracle for every scheme;
* an escape (bounds guard, possible alias overlap) rolls back exactly
  the escaping iteration and re-runs it on ``interp`` — fuzz cases
  biased toward collisions must produce reports identical to an
  all-``interp`` run;
* ``steps_budget`` bounds the loop exactly like the one-iteration
  path's per-commit charge (never more iterations than it affords);
* auto promotion adopts the kernel at ``_KERNEL_THRESHOLD`` executions,
  early-escaping traces demote at ``ESCAPE_LIMIT``;
* forced ``interp`` is the kill switch;
* re-optimization (plan invalidation) keeps the content-keyed kernel;
* the warm serve daemon reuses compiled kernels across repeat batches
  (zero-delta ``vliw.kernel_compiles``).
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.sim.replay_backends as backends
from repro.engine.instrumentation import Tracer
from repro.frontend.profiler import ProfilerConfig
from repro.fuzz.generator import generate_case
from repro.fuzz.oracles import backend_forced
from repro.ir.instruction import Opcode, binop, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
from repro.sched.machine import MachineModel
from repro.sim import replay_ir as R
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory
from repro.sim.replay_backends import (
    ESCAPE_LIMIT,
    batch_flavor,
    reset_artifact_cache,
)
from repro.sim.schemes import SmarqAdapter
from repro.sim.vliw import (
    _KERNEL_THRESHOLD,
    _KERNEL_WIDTH,
    VliwSimulator,
    invalidate_timing_plans,
)
from repro.workloads import make_benchmark

MACHINE = MachineModel()
MAX_STEPS = 200_000


@pytest.fixture(autouse=True)
def _fresh_artifacts():
    """Kernels compiled by one test must not be adopted by the next."""
    reset_artifact_cache()
    yield
    reset_artifact_cache()


def translate(insts, speculate=True):
    block = Superblock(entry_pc=0, instructions=list(insts))
    pipeline = OptimizationPipeline(
        MACHINE, OptimizerConfig(speculate=speculate)
    )
    return pipeline.optimize(block)


def loop_region():
    """Commits back to pc 0 when r3 == 0, side-exits otherwise."""
    return translate(
        [
            movi(1, 0x100),
            movi(2, 9),
            store(1, 2),
            branch(Opcode.BNE, 7, srcs=(3, 0)),
            binop(Opcode.ADD, 4, 2, 2),
            branch(Opcode.BR, 0),
        ]
    )


def alias_loop_region():
    """Speculation hoists ``load r2, [r3]``; r3 == 0x100 collides with
    the store every iteration (same shape as tests/test_timing_plans)."""
    return translate(
        [
            movi(1, 0x100),
            load(9, 8),
            store(1, 9),
            load(2, 3),
            branch(Opcode.BR, 0),
        ]
    )


def store_then_alias_region():
    """Like :func:`alias_loop_region`, plus an unrelated store to 0x200
    that runs before the colliding store's alias check escapes."""
    return translate(
        [
            movi(1, 0x100),
            movi(5, 0x200),
            movi(6, 7),
            load(9, 8),
            store(5, 6),
            store(1, 9),
            load(2, 3),
            branch(Opcode.BR, 0),
        ]
    )


def batch_once(sim, region, r3=0, budget=10**6, adapter=None):
    """One ``execute_region_batch`` call on a fresh register file."""
    registers = [0] * 64
    registers[3] = r3
    adapter = adapter or SmarqAdapter(64)
    return sim.execute_region_batch(region, adapter, registers, budget)


def bench_report(benchmark, scheme, tier=None, tracer=None):
    """One DbtSystem run as a dict, optionally with a forced path."""
    program = make_benchmark(benchmark, scale=0.05)

    def run():
        system = DbtSystem(program, scheme, tracer=tracer)
        return system.run(max_guest_steps=MAX_STEPS).to_dict()

    if tier is None:
        return run()
    with backend_forced(tier):
        return run()


class TestByteIdentity:
    """Forced-kernel reports must equal the interp oracle's, per scheme."""

    @pytest.mark.parametrize(
        "scheme", ["smarq", "smarq16", "itanium", "efficeon", "none"]
    )
    def test_batch_matches_interp(self, scheme):
        tracer = Tracer()
        kernel = bench_report("pchase", scheme, tier="kernel", tracer=tracer)
        oracle = bench_report("pchase", scheme, tier="interp")
        assert kernel == oracle
        # the kernel really looped (forced mode adopts it immediately)
        assert tracer.counters.get("vliw.kernel_loop_iterations", 0) > 0

    def test_auto_promotion_ladder(self):
        """Auto mode climbs dispatch loop → kernel and the two path
        counters partition every region execution."""
        tracer = Tracer()
        bench_report("pchase", "smarq", tracer=tracer)
        c = tracer.counters
        assert c.get("vliw.backend_interp", 0) > 0
        assert c.get("vliw.backend_kernel", 0) > 0
        assert c.get("vliw.kernel_compiles", 0) >= 1
        executed = c.get("vliw.backend_interp", 0) + c.get(
            "vliw.backend_kernel", 0
        )
        assert executed == c["vliw.regions_executed"]


class TestMidBatchAbort:
    def test_trimmed_batches_match_scalar_reports(self):
        """Collision-heavy fuzz cases whose kernel escapes mid-loop (an
        alias sweep fires, the escaping iteration rolls back and re-runs
        on the dispatch loop) must be report-identical to all-interp
        runs — the escape charges exactly the escaping iteration."""
        escaped = 0
        for seed in range(32):
            case = generate_case(seed)
            profiler = ProfilerConfig(
                hot_threshold=case.config.hot_threshold
            )
            tracer = Tracer()
            with backend_forced("kernel"):
                system = DbtSystem(
                    case.program(), "smarq",
                    profiler_config=profiler, tracer=tracer,
                )
                kernel = system.run(max_guest_steps=MAX_STEPS).to_dict()
            if not tracer.counters.get("vliw.kernel_escapes"):
                continue
            with backend_forced("interp"):
                system = DbtSystem(
                    case.program(), "smarq", profiler_config=profiler
                )
                oracle = system.run(max_guest_steps=MAX_STEPS).to_dict()
            assert kernel == oracle, f"seed {seed}"
            escaped += 1
        # several seeds escape today; keep slack for generator drift but
        # insist the escape seam was actually exercised
        assert escaped >= 3


    def test_escape_rolls_back_the_escaping_iteration(self):
        """Stores the escaping iteration made before its alias check
        fired are undone before the interp re-run, so that run's own
        rollback restores the original bytes, not the kernel's."""
        results = {}
        for tier in ("interp", "kernel"):
            with backend_forced(tier):
                memory = Memory(4096)
                memory.write(0x200, 0x55, 8)
                sim = VliwSimulator(MACHINE, memory)
                out, _, batched = batch_once(
                    sim, store_then_alias_region(), r3=0x100
                )
            assert out.status == "alias" and batched == 0
            results[tier] = (out, memory.read_bytes(0, 4096))
        assert results["kernel"] == results["interp"]
        assert results["kernel"][1][0x200] == 0x55


class TestStepsBudget:
    def test_budget_bounds_batched_iterations(self):
        """The kernel never runs more iterations than the budget
        affords at the dispatch loop's max(1, instructions) charge."""
        with backend_forced("kernel"):
            sim = VliwSimulator(MACHINE, Memory(4096))
            region = loop_region()
            # warm up: compiles the kernel and finds the loop site
            out, _, batched = batch_once(sim, region)
            assert out.status == "commit" and batched == _KERNEL_WIDTH - 1
            plan = region._vliw_trace[6]
            per_iter = max(1, plan.loop[0] + 1)
            # exactly 3 commits' worth of budget → 2 looped + 1 final
            out, _, batched = batch_once(sim, region, budget=per_iter * 3)
            assert out.status == "commit"
            assert batched == 2
            # one step over → the dispatch loop would commit a 4th time
            out, _, batched = batch_once(
                sim, region, budget=per_iter * 3 + 1
            )
            assert batched == 3
            # a budget worth < 2 commits runs a single iteration
            out, _, batched = batch_once(sim, region, budget=1)
            assert out.status == "commit"
            assert batched == 0
            # so does the one-iteration entry point
            registers = [0] * 64
            out = sim.execute_region(region, SmarqAdapter(64), registers)
            assert out.status == "commit"

    def test_exhaustion_mid_run_matches_interp(self):
        """A system run cut off inside the hot loop is byte-identical
        whether the tail ran looped or interpreted."""
        program = make_benchmark("pchase", scale=0.05)
        tracer = Tracer()
        with backend_forced("kernel"):
            system = DbtSystem(program, "smarq", tracer=tracer)
            kernel = system.run(max_guest_steps=3_000).to_dict()
        assert tracer.counters.get("vliw.kernel_loop_iterations", 0) > 0
        with backend_forced("interp"):
            system = DbtSystem(program, "smarq")
            oracle = system.run(max_guest_steps=3_000).to_dict()
        assert kernel == oracle


class TestPromotionDemotion:
    def test_batch_engages_at_threshold(self, monkeypatch):
        monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
        sim = VliwSimulator(MACHINE, Memory(4096))
        region = loop_region()
        batched = [
            batch_once(sim, region)[2]
            for _ in range(_KERNEL_THRESHOLD + 2)
        ]
        # executions 1.._KERNEL_THRESHOLD-1 run the dispatch loop; the
        # threshold execution and everything after it loops in the kernel
        assert batched[: _KERNEL_THRESHOLD - 1] == [0] * (
            _KERNEL_THRESHOLD - 1
        )
        assert all(b > 0 for b in batched[_KERNEL_THRESHOLD - 1:])

    def test_early_trimming_trace_demotes(self):
        """A trace whose alias sweep fires every iteration escapes at
        iteration 0 each time; after ESCAPE_LIMIT early escapes the
        artifact demotes and the kernel stops being tried."""
        with backend_forced("kernel"):
            tracer = Tracer()
            sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
            region = alias_loop_region()
            for _ in range(ESCAPE_LIMIT + 3):
                out, _, batched = batch_once(sim, region, r3=0x100)
                assert out.status == "alias"
                assert batched == 0
            assert tracer.counters.get("vliw.kernel_escapes") == (
                ESCAPE_LIMIT
            )
            art = region._vliw_trace[6].artifact
            assert art.unavailable and art.fn is None
            assert tracer.counters.get("vliw.backend_interp") == (
                ESCAPE_LIMIT + 3
            )


class TestKillSwitches:
    def test_forced_scalar_backend_never_batches(self):
        with backend_forced("interp"):
            tracer = Tracer()
            sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
            region = loop_region()
            for _ in range(_KERNEL_THRESHOLD + 2):
                out, _, batched = batch_once(sim, region)
                assert batched == 0
                assert out.status == "commit"
            assert tracer.counters.get("vliw.kernel_compiles", 0) == 0

    def test_report_identical_with_tier_disabled(self):
        enabled = bench_report("pchase", "smarq")
        disabled = bench_report("pchase", "smarq", tier="interp")
        assert enabled == disabled


class TestInvalidation:
    def test_reoptimize_keeps_content_keyed_kernel(self):
        """Plan invalidation (re-optimization) clears the region's trace
        but keeps the shared artifact for its replay key: the key folds
        in the whole translation, so the next run adopts the kernel."""
        with backend_forced("kernel"):
            tracer = Tracer()
            sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
            region = loop_region()
            region._replay_key = ("test-batch-invalidate",)
            batch_once(sim, region)
            assert tracer.counters.get("vliw.kernel_compiles") == 1
            # a second run reuses the compiled kernel
            batch_once(sim, region)
            assert tracer.counters.get("vliw.kernel_compiles") == 1
            assert invalidate_timing_plans(region) is True
            hits = tracer.counters.get("vliw.kernel_cache_hits", 0)
            out, _, batched = batch_once(sim, region)
            assert out.status == "commit" and batched > 0
            assert tracer.counters.get("vliw.kernel_compiles") == 1
            assert tracer.counters.get("vliw.kernel_cache_hits") == hits + 1


class TestIrHelpers:
    def ir(self, ops, events=None, payloads=None):
        n = len(ops)
        return R.ReplayIR(
            ops, events or [()] * n, payloads or [None] * n, []
        )

    def test_loop_candidate_first_br(self):
        ir = self.ir([(R.OP_ALU, R.A_MOVI, 1, None, None, 5),
                      (R.OP_BR, 0), (R.OP_NOP,)])
        assert R.loop_candidate(ir) == (1, R.X_BR)

    def test_loop_candidate_fall_through(self):
        ir = self.ir([(R.OP_ALU, R.A_MOVI, 1, None, None, 5), (R.OP_NOP,)])
        assert R.loop_candidate(ir) == (1, R.X_FALL)

    def test_loop_candidate_program_exit(self):
        ir = self.ir([(R.OP_EXIT, 0)])
        assert R.loop_candidate(ir) is None
        assert R.loop_candidate(self.ir([])) is None


class TestPrefilterFlavors:
    def test_flavor_selector(self, monkeypatch):
        """``batch_flavor()`` keeps reporting numpy's availability (a
        benchmark comparability setting) without importing numpy."""
        expected = (
            "numpy" if importlib.util.find_spec("numpy") is not None
            else "pure"
        )
        assert batch_flavor() == expected
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        assert batch_flavor() == "pure"

    def test_cli_import_does_not_load_numpy(self):
        src_root = str(Path(backends.__file__).resolve().parents[2])
        code = (
            "import sys, repro.cli, repro.sim.replay_backends as b; "
            "b.batch_flavor(); print('numpy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src_root},
        )
        assert out.stdout.strip() == "False"


class TestServeBatchWarm:
    def test_repeat_batch_reuses_batch_kernels(self):
        """With memo and report cache off, a repeat batch re-executes
        through the engine — and must be served entirely by the warm
        compiled kernels: zero new ``vliw.kernel_compiles``."""
        from repro.engine.jobs import JobSpec
        from repro.serve import ServeClient, ServeConfig, running_server

        jobs = [
            JobSpec(benchmark=b, scheme_key="smarq", scale=0.05)
            for b in ("pchase", "pwalk")
        ]
        with running_server(
            ServeConfig(cache=False, memo_limit=0)
        ) as server:
            with ServeClient(server.address) as client:
                assert client.submit(jobs).failed == 0
                cold = client.stats()["counters"]
                assert client.submit(jobs).failed == 0
                warm = client.stats()["counters"]
        assert cold.get("vliw.kernel_compiles", 0) >= 1
        assert warm["vliw.kernel_compiles"] == cold["vliw.kernel_compiles"]
        # the kernel looped again on the repeat — on warm kernels
        assert warm.get("vliw.kernel_loop_iterations", 0) > cold.get(
            "vliw.kernel_loop_iterations", 0
        )
