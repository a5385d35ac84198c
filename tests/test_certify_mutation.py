"""Mutation smoke test: the proof checker must actually catch unsound
provers.

A certify oracle that never fires proves nothing — the checker might be
vacuous (re-running the prover's own logic, or only ever seeing refused
entries). So we deliberately break a *copy* of the
:class:`~repro.analysis.certify.LinearAliasProver` with classic
soundness mutations, inject it via ``FuzzConfig.prover``, and require
the campaign to (a) catch each mutant within a bounded case budget and
(b) minimize the disagreeing case to a small instruction count.

Four mutants cover the historically dangerous failure classes:

* ``OffByOneSeparationProver`` — ``delta >= size - 1``: ranges that
  overlap by exactly one byte are certified disjoint;
* ``StrideWraparoundProver`` — ``abs(delta) >= size_src``: a negative
  separation is compared against the wrong access's width;
* ``WidthConfusionProver`` — the two widths are swapped, certifying
  pairs where a wide access straddles a narrow one;
* ``StaleHintsProver`` — refusal ignores runtime alias hints, keeping a
  certificate alive after the hardware has *seen* the pair collide.

The first three are caught by the checker's concrete finite-difference
re-evaluation; the fourth by its independent refusal re-derivation
(the certify oracle's synthetic-hints leg). None of them share code
paths with the checker, so every catch is a genuine cross-check.
"""

import pytest

from repro.analysis.certify import (
    CERTIFIED,
    LinearAliasProver,
    certify_region,
    check_certificate,
    prover_overridden,
)
from repro.analysis.dependence import Dependence
from repro.fuzz import FuzzConfig, run_fuzz
from repro.ir.instruction import Instruction, Opcode, load, store
from repro.ir.superblock import Superblock

#: fuzz cases the campaign may burn before each mutant must be caught
CATCH_BUDGET = 50
#: acceptance bound for the minimized repro (ISSUE: <= 12 instructions)
MAX_MINIMIZED_OPS = 12


class OffByOneSeparationProver(LinearAliasProver):
    """Off-by-one: a single-byte overlap passes as disjoint."""

    name = "mutant-off-by-one"

    def separated(self, delta, size_src, size_dst):
        return delta >= size_src - 1 or -delta >= size_dst - 1


class StrideWraparoundProver(LinearAliasProver):
    """Sign confusion: negative separations checked against the wrong
    width (the classic stride-wraparound bug shape)."""

    name = "mutant-wraparound"

    def separated(self, delta, size_src, size_dst):
        return abs(delta) >= size_src


class WidthConfusionProver(LinearAliasProver):
    """Swapped access widths: wide-straddles-narrow pairs certify."""

    name = "mutant-width-swap"

    def separated(self, delta, size_src, size_dst):
        return delta >= size_dst or -delta >= size_src


class StaleHintsProver(LinearAliasProver):
    """Hint-blind refusal: profile feedback no longer outranks the
    static proof, so certificates survive observed runtime aliasing."""

    name = "mutant-stale-hints"

    def refuses(self, dep, src, dst, alias_hints, banned):
        return super().refuses(dep, src, dst, {}, banned)


MUTANTS = [
    OffByOneSeparationProver,
    StrideWraparoundProver,
    WidthConfusionProver,
    StaleHintsProver,
]


def _hunt(mutant, tmp_path):
    config = FuzzConfig(
        seed=0,
        cases=CATCH_BUDGET,
        oracles=("certify",),
        out_dir=tmp_path,
        max_failures=1,
        prover=mutant(),
    )
    return run_fuzz(config), config


class TestMutantsAreCaught:
    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_caught_and_minimized(self, mutant, tmp_path):
        stats, _config = _hunt(mutant, tmp_path)
        assert not stats.ok, (
            f"{mutant.__name__} survived {stats.cases_run} fuzz cases"
        )
        failure = stats.failures[0]
        assert stats.cases_run <= CATCH_BUDGET
        assert failure.minimized is not None
        assert len(failure.minimized.ops) <= MAX_MINIMIZED_OPS, (
            f"minimized to {len(failure.minimized.ops)} ops "
            f"(> {MAX_MINIMIZED_OPS}) in {failure.minimizer_tests} tests"
        )
        # artifacts for the humans: corpus entry + standalone pytest repro
        assert failure.entry_path is not None and failure.entry_path.exists()
        assert failure.repro_path is not None and failure.repro_path.exists()
        source = failure.repro_path.read_text()
        assert "def test_fuzz_repro" in source
        compile(source, str(failure.repro_path), "exec")

    def test_healthy_prover_same_budget_is_clean(self, tmp_path):
        """The same seeds with the sound prover find nothing — the
        catches above are the mutation, not oracle noise."""
        config = FuzzConfig(
            seed=0,
            cases=10,
            oracles=("certify",),
            out_dir=tmp_path,
        )
        stats = run_fuzz(config)
        assert stats.ok


def _walk_block(delta, size=8):
    """``st [r8+delta]; ld [r8+0]`` via a derived pointer — the minimal
    shape every separation mutant mis-certifies at its boundary."""
    st = store(9, 21, disp=0, size=size)
    ld = load(20, 8, disp=0, size=size)
    block = Superblock(
        entry_pc=0x200,
        instructions=[
            Instruction(Opcode.ADD, dest=9, srcs=(8,), imm=delta),
            st,
            ld,
        ],
    )
    return block, [Dependence(st, ld)]


class TestMutantSanity:
    """The mutants really are unsound — and the checker, not the prover,
    is what rejects their certificates."""

    def test_off_by_one_certifies_single_byte_overlap(self):
        block, deps = _walk_block(delta=-7, size=8)
        sound = certify_region(block, deps)
        assert sound.num_certified == 0
        cert = certify_region(block, deps, prover=OffByOneSeparationProver())
        assert cert.num_certified == 1
        assert check_certificate(cert, block, deps)

    def test_wraparound_certifies_negative_overlap(self):
        # src store [4, 8), dst load [0, 8): overlap, delta -4. The
        # mutant compares |delta| against the *source* width (4) and
        # certifies; the sound rule needs -delta >= dst width (8).
        st = store(8, 21, disp=4, size=4)
        ld = load(20, 8, disp=0, size=8)
        block = Superblock(entry_pc=0x200, instructions=[st, ld])
        deps = [Dependence(st, ld)]
        assert certify_region(block, deps).num_certified == 0
        cert = certify_region(block, deps, prover=StrideWraparoundProver())
        assert cert.num_certified == 1
        assert check_certificate(cert, block, deps)

    def test_width_swap_certifies_straddle(self):
        # narrow store at +4, wide load at +0: delta -4 >= swapped width.
        st = store(8, 21, disp=4, size=4)
        ld = load(20, 8, disp=0, size=8)
        block = Superblock(entry_pc=0x200, instructions=[st, ld])
        deps = [Dependence(st, ld)]
        assert certify_region(block, deps).num_certified == 0
        cert = certify_region(block, deps, prover=WidthConfusionProver())
        assert cert.num_certified == 1
        assert check_certificate(cert, block, deps)

    def test_stale_hints_certifies_observed_alias(self):
        block, deps = _walk_block(delta=64)
        insts = list(block)
        hints = {(insts[1].mem_index, insts[2].mem_index): 1.0}
        sound = certify_region(block, deps, alias_hints=hints)
        assert sound.num_certified == 0
        cert = certify_region(
            block, deps, alias_hints=hints, prover=StaleHintsProver()
        )
        assert cert.num_certified == 1
        problems = check_certificate(cert, block, deps, alias_hints=hints)
        assert any("hint" in p for p in problems)

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutants_agree_away_from_boundary(self, mutant):
        """Far-separated pairs certify under every prover, and the
        checker accepts those certificates — the mutants are wrong only
        at their planted boundary."""
        block, deps = _walk_block(delta=64)
        cert = certify_region(block, deps, prover=mutant())
        assert cert.num_certified == 1
        assert cert.entries[0].verdict == CERTIFIED
        assert not check_certificate(cert, block, deps)

    def test_pipeline_rejects_mutant_certificates(self):
        """End-to-end fail-safe: with an unsound prover installed, the
        in-pipeline checker discards the certificate and no dependence
        is dropped."""
        from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
        from repro.sched.machine import MachineModel

        block, _deps = _walk_block(delta=-7, size=8)
        pipeline = OptimizationPipeline(
            MachineModel().with_alias_registers(64),
            OptimizerConfig(speculate=True, certify=True),
        )
        with prover_overridden(OffByOneSeparationProver()):
            region = pipeline.optimize(block)
        assert region.certified_pairs is None
