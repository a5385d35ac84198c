"""Static alias certification: prover/checker unit and property tests.

Covers the contracts ``docs/CERTIFY.md`` promises:

* the sound prover's separation predicate is *exactly* interval
  disjointness, and widening an access never flips unsafe to safe
  (verdict monotonicity, property-based);
* certificates round-trip through their serialized form;
* cache keys react to what matters (content, certify config, kill
  switch, prover overrides) and ignore what does not (instruction uid
  churn);
* the ``SMARQ_NO_CERTIFY=1`` kill switch is a byte-level no-op for
  every pre-existing scheme;
* the ``smarq-cert`` acceptance claim: on the pointer-walk benchmarks
  it performs strictly fewer runtime checks than ``smarq`` with zero
  alias exceptions and identical architectural state.
"""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.certify import (
    CERTIFIED,
    REFUSED,
    UNPROVED,
    Certificate,
    CertEntry,
    LinearAliasProver,
    block_digest,
    certify_region,
    check_certificate,
    prover_overridden,
    prover_token,
)
from repro.analysis.dependence import Dependence
from repro.frontend.profiler import ProfilerConfig
from repro.fuzz.generator import generate_case
from repro.fuzz.oracles import certify_disabled
from repro.ir.instruction import Instruction, Opcode, load, store
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
from repro.sched.machine import MachineModel
from repro.sim.dbt import DbtSystem
from repro.workloads import make_benchmark

#: every scheme that existed before certification — the kill switch must
#: be invisible to all of them
PRE_CERTIFY_SCHEMES = (
    "smarq", "smarq16", "itanium", "none", "efficeon", "plainorder"
)

_PROVER = LinearAliasProver()


def _intervals_disjoint(delta, size_src, size_dst):
    """Ground truth by direct interval arithmetic: ``[0, size_src)``
    vs ``[delta, delta + size_dst)``."""
    return delta >= size_src or delta + size_dst <= 0


# ----------------------------------------------------------------------
# Prover predicate properties
# ----------------------------------------------------------------------
class TestSeparationPredicate:
    @given(
        delta=st.integers(-64, 64),
        size_src=st.integers(1, 16),
        size_dst=st.integers(1, 16),
    )
    def test_exactly_interval_disjointness(self, delta, size_src, size_dst):
        assert _PROVER.separated(delta, size_src, size_dst) == (
            _intervals_disjoint(delta, size_src, size_dst)
        )

    @given(
        delta=st.integers(-64, 64),
        size_src=st.integers(1, 16),
        size_dst=st.integers(1, 16),
        widen_src=st.integers(0, 16),
        widen_dst=st.integers(0, 16),
    )
    def test_widening_never_flips_unsafe_to_safe(
        self, delta, size_src, size_dst, widen_src, widen_dst
    ):
        """Verdict monotonicity: growing either access can only destroy
        a separation proof, never manufacture one."""
        if not _PROVER.separated(delta, size_src, size_dst):
            assert not _PROVER.separated(
                delta, size_src + widen_src, size_dst + widen_dst
            )


# ----------------------------------------------------------------------
# Certificate serialization
# ----------------------------------------------------------------------
entry_strategy = st.builds(
    CertEntry,
    src_pos=st.integers(0, 63),
    dst_pos=st.integers(0, 63),
    verdict=st.sampled_from([CERTIFIED, REFUSED, UNPROVED]),
    reason=st.sampled_from(
        ["const-separation", "disjoint-objects", "must-alias",
         "hinted", "banned", "overlap", "unknown-address", "no-rule"]
    ),
)


class TestSerialization:
    @given(
        digest=st.text("0123456789abcdef", min_size=8, max_size=16),
        prover=st.sampled_from(["linear", "mutant-x"]),
        entries=st.lists(entry_strategy, max_size=8),
    )
    def test_round_trip(self, digest, prover, entries):
        cert = Certificate(
            block_digest=digest, prover=prover, entries=tuple(entries)
        )
        clone = Certificate.from_dict(cert.to_dict())
        assert clone == cert
        assert clone.certified_pairs() == cert.certified_pairs()

    def test_schema_is_versioned(self):
        cert = Certificate(block_digest="ab", prover="linear", entries=())
        data = cert.to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError):
            Certificate.from_dict(data)


# ----------------------------------------------------------------------
# Region-level certification
# ----------------------------------------------------------------------
def _walk_block(delta, size=8):
    st_ = store(9, 21, disp=0, size=size)
    ld = load(20, 8, disp=0, size=size)
    block = Superblock(
        entry_pc=0x300,
        instructions=[
            Instruction(Opcode.ADD, dest=9, srcs=(8,), imm=delta),
            st_,
            ld,
        ],
    )
    return block, [Dependence(st_, ld)]


class TestCertifyRegion:
    @pytest.mark.parametrize("delta", [8, 16, 64, -8, -64])
    def test_separated_walks_certify(self, delta):
        block, deps = _walk_block(delta)
        cert = certify_region(block, deps)
        assert cert.num_certified == 1
        assert not check_certificate(cert, block, deps)

    @pytest.mark.parametrize("delta", [0, 1, 7, -1, -7])
    def test_overlapping_walks_do_not(self, delta):
        block, deps = _walk_block(delta)
        cert = certify_region(block, deps)
        assert cert.num_certified == 0
        assert cert.entries[0].reason == "overlap"

    def test_loaded_pointer_walk_certifies(self):
        """R1 through a *loaded* base: both addresses share one fresh
        load symbol — beyond what plain aliasinfo can disambiguate."""
        p = load(10, 16, disp=0, size=8)  # p = ld [r16]
        st_ = store(11, 21, disp=0, size=8)  # st [p+64]
        ld = load(20, 10, disp=0, size=8)  # ld [p]
        block = Superblock(
            entry_pc=0x300,
            instructions=[
                p,
                Instruction(Opcode.ADD, dest=11, srcs=(10,), imm=64),
                st_,
                ld,
            ],
        )
        deps = [Dependence(st_, ld)]
        cert = certify_region(block, deps)
        assert cert.num_certified == 1
        assert not check_certificate(cert, block, deps)

    def test_must_and_hinted_pairs_refused(self):
        block, deps = _walk_block(64)
        must = [Dependence(deps[0].src, deps[0].dst, must=True)]
        assert certify_region(block, must).entries[0].verdict == REFUSED
        insts = list(block)
        hints = {(insts[1].mem_index, insts[2].mem_index): 1.0}
        hinted = certify_region(block, deps, alias_hints=hints)
        assert hinted.entries[0] == CertEntry(1, 2, REFUSED, "hinted")

    def test_stale_certificate_rejected_by_digest(self):
        block, deps = _walk_block(64)
        cert = certify_region(block, deps)
        other, other_deps = _walk_block(7)
        problems = check_certificate(cert, other, other_deps)
        assert problems and "digest" in problems[0]


# ----------------------------------------------------------------------
# Cache-key sensitivity
# ----------------------------------------------------------------------
class TestCacheKeys:
    def test_uid_churn_does_not_change_digest(self):
        a, _ = _walk_block(64)
        b, _ = _walk_block(64)  # same content, fresh instruction uids
        assert block_digest(a) == block_digest(b)

    def test_content_change_changes_digest(self):
        a, _ = _walk_block(64)
        b, _ = _walk_block(32)
        assert block_digest(a) != block_digest(b)

    def _full_key(self, pipeline, block):
        from repro.opt.translation_cache import region_content_key

        return pipeline._full_key(region_content_key(block), (), ())

    def test_certify_config_and_kill_switch_in_key(self, monkeypatch):
        machine = MachineModel().with_alias_registers(64)
        block, _ = _walk_block(64)
        plain = OptimizationPipeline(machine, OptimizerConfig())
        cert = OptimizationPipeline(
            machine, OptimizerConfig(certify=True)
        )
        plain_key = self._full_key(plain, block)
        cert_key = self._full_key(cert, block)
        assert plain_key != cert_key  # config digest differs

        # Kill switch flips the certifying pipeline's key only.
        monkeypatch.setenv("SMARQ_NO_CERTIFY", "1")
        assert self._full_key(plain, block) == plain_key
        assert self._full_key(cert, block) != cert_key

    def test_prover_override_in_key_only_when_certifying(self):
        machine = MachineModel().with_alias_registers(64)
        block, _ = _walk_block(64)
        plain = OptimizationPipeline(machine, OptimizerConfig())
        cert = OptimizationPipeline(
            machine, OptimizerConfig(certify=True)
        )
        plain_key = self._full_key(plain, block)
        cert_key = self._full_key(cert, block)
        with prover_overridden(LinearAliasProver()):
            assert self._full_key(plain, block) == plain_key
            assert self._full_key(cert, block) != cert_key
        # The token moves on exit too: stale overridden keys never revive.
        assert self._full_key(cert, block) != cert_key

    def test_prover_token_monotonic(self):
        before = prover_token()
        with prover_overridden(LinearAliasProver()):
            during = prover_token()
        assert during > before
        assert prover_token() > during


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
class TestPipeline:
    def _pipeline(self, certify):
        return OptimizationPipeline(
            MachineModel().with_alias_registers(64),
            OptimizerConfig(speculate=True, certify=certify),
        )

    def test_certified_dep_dropped_and_certificate_attached(self):
        block, _ = _walk_block(64)
        region = self._pipeline(certify=True).optimize(block)
        assert region.certified_pairs is not None
        assert region.certified_pairs >= 1

    def test_kill_switch_disables_certification(self, monkeypatch):
        monkeypatch.setenv("SMARQ_NO_CERTIFY", "1")
        block, _ = _walk_block(64)
        region = self._pipeline(certify=True).optimize(block)
        assert region.certified_pairs is None

    def test_non_certifying_config_never_certifies(self):
        block, _ = _walk_block(64)
        region = self._pipeline(certify=False).optimize(block)
        assert region.certified_pairs is None


# ----------------------------------------------------------------------
# Kill-switch byte-identity for the pre-existing schemes
# ----------------------------------------------------------------------
def _report_and_state(program, scheme):
    system = DbtSystem(
        program, scheme, profiler_config=ProfilerConfig(hot_threshold=10)
    )
    report = system.run(max_guest_steps=5_000_000)
    return (
        report.to_dict(),
        (list(system.interpreter.registers), bytes(system.memory._data)),
    )


class TestKillSwitchParity:
    @pytest.mark.parametrize("scheme", PRE_CERTIFY_SCHEMES)
    def test_pre_existing_schemes_unchanged(self, scheme):
        """``SMARQ_NO_CERTIFY=1`` must be invisible — byte-identical
        report — to every scheme that does not certify."""
        case = generate_case(7)
        on, _ = _report_and_state(case.program(), scheme)
        with certify_disabled():
            off, _ = _report_and_state(case.program(), scheme)
        assert on == off

    def test_smarq_cert_state_parity(self):
        """Certification may change counts, never architectural state."""
        case = generate_case(7)
        _, state_on = _report_and_state(case.program(), "smarq-cert")
        with certify_disabled():
            _, state_off = _report_and_state(case.program(), "smarq-cert")
        assert state_on == state_off


# ----------------------------------------------------------------------
# Acceptance: smarq-cert on the pointer-walk benchmarks
# ----------------------------------------------------------------------
def _total_checks(report_dict):
    return sum(
        s["check_constraints"] for s in report_dict["regions"].values()
    )


class TestPointerWalkAcceptance:
    @pytest.mark.parametrize("bench", ["pwalk", "pchase"])
    def test_strictly_fewer_checks_zero_exceptions(self, bench):
        program = make_benchmark(bench, scale=0.05)
        smarq, smarq_state = _report_and_state(program, "smarq")
        program = make_benchmark(bench, scale=0.05)
        cert, cert_state = _report_and_state(program, "smarq-cert")
        assert _total_checks(cert) < _total_checks(smarq), (
            f"{bench}: certification dropped no checks "
            f"({_total_checks(cert)} vs {_total_checks(smarq)})"
        )
        assert smarq["alias_exceptions"] == 0
        assert cert["alias_exceptions"] == 0
        assert cert_state == smarq_state
