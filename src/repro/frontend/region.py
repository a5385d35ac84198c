"""Superblock region formation (paper Section 6).

Starting from a hot block head, the former walks the most frequent
execution path: at each conditional branch it consults the profiler and
either keeps the branch as a *side exit* (fall-through continues the
trace) or, when the taken direction is hotter, inverts the branch
condition so the original target becomes the trace continuation and the
original fall-through becomes the side exit. Growth stops at a cold block,
at a back edge to the region head (a loop — the region ends with an
unconditional branch back to the head, letting the translated region
re-dispatch to itself), at an ``EXIT``, or at the length cap.

The formed :class:`~repro.ir.superblock.Superblock` contains *copies* of
the guest instructions (fresh uids) so optimization never mutates the
guest image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.frontend.profiler import HotnessProfiler
from repro.frontend.program import GuestProgram
from repro.ir.instruction import Instruction, Opcode, branch
from repro.ir.superblock import Superblock

_INVERSE = {
    Opcode.BEQ: Opcode.BNE,
    Opcode.BNE: Opcode.BEQ,
    Opcode.BLT: Opcode.BGE,
    Opcode.BGE: Opcode.BLT,
}


@dataclass
class RegionFormationConfig:
    max_instructions: int = 200
    #: stop extending the trace across more than this many side exits
    max_side_exits: int = 16


class RegionFormer:
    """Builds superblocks along hot paths."""

    def __init__(
        self,
        program: GuestProgram,
        profiler: HotnessProfiler,
        config: Optional[RegionFormationConfig] = None,
        heads: Optional[Set[int]] = None,
    ) -> None:
        """``heads`` is ``program.block_heads()``, passed in by callers
        that already computed it."""
        self.program = program
        self.profiler = profiler
        self.config = config or RegionFormationConfig()
        self._heads: Set[int] = (
            heads if heads is not None else program.block_heads()
        )

    def form(self, head_pc: int) -> Superblock:
        """Form a superblock starting at ``head_pc``."""
        block = Superblock(entry_pc=head_pc, name=f"sb@{head_pc}")
        pc = head_pc
        side_exits = 0
        heads = self._heads

        while len(block) < self.config.max_instructions:
            inst = self.program.at(pc)
            if inst.opcode is Opcode.EXIT:
                block.append(inst.copy())
                break
            if inst.opcode is Opcode.BR:
                if inst.target == head_pc:
                    block.append(inst.copy())  # loop back edge: close region
                    break
                pc = inst.target  # unconditional: follow, no side exit
                if self._should_stop(pc, head_pc):
                    block.append(branch(Opcode.BR, inst.target))
                    break
                continue
            if inst.is_branch:
                side_exits += 1
                follow_taken = self.profiler.prefer_taken(pc, inst.target)
                if follow_taken:
                    inverted = branch(
                        _INVERSE[inst.opcode], pc + 1, srcs=inst.srcs
                    )
                    inverted.guest_pc = pc
                    block.append(inverted)
                    next_pc = inst.target
                else:
                    block.append(inst.copy())
                    next_pc = pc + 1
                if next_pc == head_pc:
                    block.append(branch(Opcode.BR, head_pc))
                    break
                if (
                    side_exits >= self.config.max_side_exits
                    or self._should_stop(next_pc, head_pc)
                ):
                    block.append(branch(Opcode.BR, next_pc))
                    break
                pc = next_pc
                continue
            block.append(inst.copy())
            pc += 1
            if pc >= len(self.program):
                break
            if pc in heads and self._should_stop(pc, head_pc):
                block.append(branch(Opcode.BR, pc))
                break

        block.renumber_memory_ops()
        return block

    def _should_stop(self, pc: int, head_pc: int) -> bool:
        """Stop growth at cold blocks (only evaluated at block heads)."""
        if pc == head_pc:
            return False
        if pc not in self._heads:
            return False
        return self.profiler.is_cold(pc)
