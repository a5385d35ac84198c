"""Replay IR and replay-path tests.

Hot traces lower once into the numeric replay IR
(:mod:`repro.sim.replay_ir`) and execute on one of two paths: the
generic dispatch loop (``interp``, the oracle) or the one compiled
kernel (:func:`repro.sim.replay_backends.compile_vec`). These tests pin:

* the IR round-trips through its numeric payload encoding exactly when
  it carries no dynamic escapes;
* both paths are byte-identical — outcome, registers, memory and
  stats — for every shipped scheme and every exit kind;
* auto mode adopts the kernel per plan at the documented threshold (at
  once when the shared artifact already holds it), and
  ``SMARQ_REPLAY_BACKEND`` forces a path (a forced kernel degrades to
  ``interp`` for non-lowerable traces) and rejects any other value;
* re-optimization/blacklisting invalidation drops the region's timing
  plans but keeps the content-keyed shared artifacts.
"""

import json

import pytest

import repro.sim.replay_backends as backends_mod
import repro.sim.replay_ir as R
import repro.sim.vliw as vliw_mod
from repro.engine.instrumentation import Tracer
from repro.ir.instruction import Opcode, binop, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
from repro.sched.machine import MachineModel
from repro.sim.memory import Memory
from repro.sim.schemes import (
    EfficeonAdapter,
    ItaniumAdapter,
    NullAdapter,
    SmarqAdapter,
)
from repro.sim.vliw import VliwSimulator, invalidate_timing_plans

MACHINE = MachineModel()

SCHEME_FACTORIES = {
    "smarq": lambda: SmarqAdapter(64),
    "itanium": ItaniumAdapter,
    "efficeon": EfficeonAdapter,
    "none": NullAdapter,
}


@pytest.fixture(autouse=True)
def _fresh_artifacts():
    backends_mod.reset_artifact_cache()
    yield
    backends_mod.reset_artifact_cache()


def translate(insts, speculate=True):
    block = Superblock(entry_pc=0, instructions=list(insts))
    pipeline = OptimizationPipeline(
        MACHINE, OptimizerConfig(speculate=speculate)
    )
    return pipeline.optimize(block)


def side_exit_region():
    """Commits when r3 == 0, takes the side exit otherwise."""
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


def alias_region():
    """Speculation may hoist ``load r2, [r3]`` above the store; r3 ==
    0x100 then collides at runtime."""
    return translate(
        [
            movi(1, 0x100),
            load(9, 8),
            store(1, 9),
            load(2, 3),
            branch(Opcode.BR, 0),
        ]
    )


def exit_region():
    """Ends the guest program (X_EXIT) with code 7."""
    return translate(
        [
            movi(1, 0x100),
            movi(2, 3),
            store(1, 2),
            branch(Opcode.EXIT, 7),
        ]
    )


def run_once(region, r3=0, adapter=None, sim=None, tracer=None):
    memory = Memory(4096)
    memory.write(0x100, 0xAB, 8)
    registers = [0] * 64
    registers[3] = r3
    sim = sim or VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
    sim.memory = memory
    adapter = adapter or SmarqAdapter(64)
    outcome = sim.execute_region(region, adapter, registers)
    return outcome, registers, memory, sim


def lowered_ir(region, adapter_cls=SmarqAdapter):
    """Lower a region's compiled trace (populating the trace cache)."""
    run_once(region)
    linear, _cls, _machine, trace, _ft, _ftrace, _plan = region._vliw_trace
    return R.lower_trace(linear, trace, adapter_cls)


class TestIRRoundTrip:
    def test_payload_round_trip_is_exact(self):
        ir = lowered_ir(side_exit_region())
        assert ir.serializable
        payload = ir.to_payload()
        json.dumps(payload)  # JSON-able end to end
        back = R.ReplayIR.from_payload(payload)
        assert back.ops == ir.ops
        assert back.events == ir.events
        assert back.payloads == ir.payloads
        assert back.dyn == []

    def test_round_trip_for_every_scheme(self):
        for name, factory in SCHEME_FACTORIES.items():
            adapter_cls = type(factory())
            ir = lowered_ir(alias_region(), adapter_cls)
            back = R.ReplayIR.from_payload(ir.to_payload())
            assert back.ops == ir.ops, name
            assert back.events == ir.events, name

    def test_dynamic_escapes_refuse_serialization(self):
        ir = R.ReplayIR(ops=[], events=[], payloads=[], dyn=[("alu", None)])
        assert not ir.serializable
        with pytest.raises(ValueError):
            ir.to_payload()

    def test_unknown_payload_version_raises(self):
        ir = lowered_ir(side_exit_region())
        payload = ir.to_payload()
        payload["version"] = 99
        with pytest.raises(ValueError):
            R.ReplayIR.from_payload(payload)


class TestTierByteIdentity:
    """Every tier must be byte-identical for every scheme and exit."""

    def run_tier(self, monkeypatch, tier, make_region, r3, factory, n=3):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", tier)
        backends_mod.reset_artifact_cache()
        region = make_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        assert sim._backend == tier
        runs = []
        for _ in range(n):  # cold + warm kernel paths
            out, regs, mem, _ = run_once(
                region, r3=r3, adapter=factory(), sim=sim
            )
            runs.append((out, list(regs), mem.read_bytes(0, 4096)))
        return runs, sim.stats, tracer

    @pytest.mark.parametrize("scheme", sorted(SCHEME_FACTORIES))
    @pytest.mark.parametrize(
        "shape,make_region,r3",
        [
            ("commit", side_exit_region, 0),
            ("side_exit", side_exit_region, 1),
            ("alias", alias_region, 0x100),
            ("alias_clean", alias_region, 0x300),
            ("exit", exit_region, 0),
        ],
    )
    def test_tiers_agree(self, monkeypatch, scheme, shape, make_region, r3):
        factory = SCHEME_FACTORIES[scheme]
        baseline = None
        for tier in ("interp", "kernel"):
            runs, stats, _ = self.run_tier(
                monkeypatch, tier, make_region, r3, factory
            )
            if baseline is None:
                baseline = (runs, stats)
            else:
                assert runs == baseline[0], (scheme, shape, tier)
                assert stats == baseline[1], (scheme, shape, tier)

    def test_expected_exit_statuses(self, monkeypatch):
        cases = {
            ("commit", side_exit_region, 0): "commit",
            ("side_exit", side_exit_region, 1): "side_exit",
            ("exit", exit_region, 0): "exit",
        }
        for (shape, make_region, r3), status in cases.items():
            runs, _, _ = self.run_tier(
                monkeypatch, "kernel", make_region, r3, NullAdapter
            )
            assert runs[0][0].status == status, shape


class TestTierPromotion:
    def test_auto_mode_promotes_at_thresholds(self, monkeypatch):
        monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        assert sim._backend is None
        total = vliw_mod._KERNEL_THRESHOLD + 2
        for i in range(1, total + 1):
            run_once(region, r3=0, adapter=NullAdapter(), sim=sim)
            plan = region._vliw_trace[6]
            assert plan.executions == i
            if i < vliw_mod._KERNEL_THRESHOLD:
                assert plan.artifact.fn is None, i
            else:
                assert plan.artifact.fn is not None, i
        interp_runs = vliw_mod._KERNEL_THRESHOLD - 1
        assert tracer.counters.get("vliw.backend_interp", 0) == interp_runs
        assert tracer.counters.get("vliw.backend_kernel", 0) == (
            total - interp_runs
        )
        assert tracer.counters.get("vliw.kernel_compiles", 0) == 1

    def test_shared_artifact_skips_recompilation(self):
        """A content-identical clone adopts the cached kernel without
        compiling again (the process-wide artifact cache)."""
        region_a = side_exit_region()
        region_b = side_exit_region()
        if getattr(region_a, "_replay_key", None) is None:
            pytest.skip("regions carry no translation key")
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        for _ in range(vliw_mod._KERNEL_THRESHOLD):
            run_once(region_a, r3=0, adapter=NullAdapter(), sim=sim)
        assert tracer.counters.get("vliw.kernel_compiles", 0) == 1
        for _ in range(vliw_mod._KERNEL_THRESHOLD):
            run_once(region_b, r3=0, adapter=NullAdapter(), sim=sim)
        assert tracer.counters.get("vliw.kernel_compiles", 0) == 1
        assert tracer.counters.get("vliw.kernel_cache_hits", 0) == 1


class TestBackendKillSwitch:
    def test_forced_interp_never_compiles(self, monkeypatch):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "interp")
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        n = vliw_mod._KERNEL_THRESHOLD + 4
        for _ in range(n):
            run_once(region, r3=0, adapter=NullAdapter(), sim=sim)
        plan = region._vliw_trace[6]
        assert plan.artifact.fn is None
        assert tracer.counters.get("vliw.backend_interp", 0) == n
        assert tracer.counters.get("vliw.kernel_compiles", 0) == 0

    def test_forced_vec_adopts_immediately(self, monkeypatch):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "kernel")
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        run_once(region, r3=0, adapter=NullAdapter(), sim=sim)
        plan = region._vliw_trace[6]
        assert plan.artifact.fn is not None
        assert tracer.counters.get("vliw.backend_kernel", 0) == 1

    def test_forced_kernel_degrades_to_interp_when_not_lowerable(
        self, monkeypatch
    ):
        """Traces the static lowering rejects (dynamic escapes, certain
        overlaps) get no kernel; a forced kernel must silently run the
        dispatch loop instead."""
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "kernel")
        monkeypatch.setattr(
            backends_mod, "compile_vec", lambda *a, **k: None
        )
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        out = run_once(region, r3=0, adapter=NullAdapter(), sim=sim)[0]
        assert out.status == "commit"
        plan = region._vliw_trace[6]
        assert plan.artifact.fn is None
        assert plan.artifact.unavailable
        assert tracer.counters.get("vliw.backend_interp", 0) == 1
        assert tracer.counters.get("vliw.backend_kernel", 0) == 0

    @pytest.mark.parametrize("value", ["jit", "py", "vec", "batch", "KERNEL"])
    def test_unknown_value_raises(self, monkeypatch, value):
        """A typo or a retired path name must fail closed, not silently
        fall back to auto promotion (a forced-path CI leg would then
        test nothing)."""
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", value)
        with pytest.raises(ValueError, match="SMARQ_REPLAY_BACKEND"):
            VliwSimulator(MACHINE, Memory(4096))

    @pytest.mark.parametrize("value", ["interp", "kernel"])
    def test_known_values_accepted(self, monkeypatch, value):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", value)
        assert VliwSimulator(MACHINE, Memory(4096))._backend == value


class TestArtifactInvalidation:
    def test_invalidation_drops_plans_and_keeps_artifacts(self, monkeypatch):
        """Invalidation clears the region's own trace and plans; the
        shared artifact is keyed by the full translation key, so it can
        never go stale and a re-run adopts its kernel without codegen."""
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "kernel")
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        run_once(region, r3=0, adapter=NullAdapter(), sim=sim)
        assert tracer.counters.get("vliw.kernel_compiles", 0) == 1
        replay_key = region._replay_key
        cached = [k for k in backends_mod._artifacts if k[0] == replay_key]
        assert cached

        assert invalidate_timing_plans(region) is True
        assert region._vliw_trace is None
        assert [
            k for k in backends_mod._artifacts if k[0] == replay_key
        ] == cached
        # idempotent; a re-run re-lowers the trace but reuses the kernel
        assert invalidate_timing_plans(region) is False
        out = run_once(region, r3=0, adapter=NullAdapter(), sim=sim)[0]
        assert out.status == "commit"
        assert tracer.counters.get("vliw.kernel_compiles", 0) == 1

    def test_runtime_reoptimization_invalidates(self):
        """The runtime invalidation hook is what re-optimize/blacklist
        call; its contract is pinned here via the public helper."""
        region = alias_region()
        sim = VliwSimulator(MACHINE, Memory(4096))
        for _ in range(vliw_mod._KERNEL_THRESHOLD):
            run_once(region, r3=0x300, adapter=NullAdapter(), sim=sim)
        assert region._vliw_trace is not None
        assert invalidate_timing_plans(region) is True
        assert region._vliw_trace is None
