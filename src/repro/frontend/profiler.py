"""Hotness profiling (paper Section 6: hot/cold thresholds).

The profiler counts executions of basic-block heads and of branch edges.
It observes either one instruction at a time (as the interpreter's
``trace_hook``) or one straight-line run at a time: the DBT loop
interprets a basic block per call and reports its first pc and length,
which updates the counts exactly as observing each pc would.
A block becomes *hot* when its head's execution count reaches
``hot_threshold``; a block is *cold* (terminates region growth) while its
count is below ``cold_threshold``. Edge counts steer superblock formation
toward the most frequent successor of each conditional branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.frontend.program import GuestProgram


@dataclass
class ProfilerConfig:
    hot_threshold: int = 50
    cold_threshold: int = 5


class HotnessProfiler:
    """Execution-count profiler attached to the interpreter's trace hook."""

    def __init__(
        self,
        program: GuestProgram,
        config: Optional[ProfilerConfig] = None,
        heads: Optional[Set[int]] = None,
    ) -> None:
        """``heads`` is ``program.block_heads()``, passed in by callers
        that already computed it."""
        self.program = program
        self.config = config or ProfilerConfig()
        self._heads: Set[int] = (
            heads if heads is not None else program.block_heads()
        )
        self.block_counts: Dict[int, int] = {}
        self.edge_counts: Dict[Tuple[int, int], int] = {}
        self._last_pc: Optional[int] = None

    # ------------------------------------------------------------------
    def observe(self, pc: int, steps: int = 1) -> None:
        """Record ``steps`` instructions executed in sequence from ``pc``.

        With the default ``steps=1`` this is the interpreter's trace
        hook, called with each executed pc. A longer run must be
        straight-line code with no block head after its first pc — one
        basic block or a tail of one — so only its first pc can count as
        a head and only its entry can be a non-fall-through edge.
        """
        last = self._last_pc
        if pc in self._heads:
            self.block_counts[pc] = self.block_counts.get(pc, 0) + 1
        if last is not None and pc != last + 1:
            edge = (last, pc)
            self.edge_counts[edge] = self.edge_counts.get(edge, 0) + 1
        self._last_pc = pc + steps - 1

    # ------------------------------------------------------------------
    def is_hot(self, head_pc: int) -> bool:
        return self.block_counts.get(head_pc, 0) >= self.config.hot_threshold

    def is_cold(self, head_pc: int) -> bool:
        return self.block_counts.get(head_pc, 0) < self.config.cold_threshold

    def hot_heads(self) -> Set[int]:
        return {
            pc
            for pc, count in self.block_counts.items()
            if count >= self.config.hot_threshold
        }

    def taken_count(self, branch_pc: int, target_pc: int) -> int:
        return self.edge_counts.get((branch_pc, target_pc), 0)

    def prefer_taken(self, branch_pc: int, target_pc: int) -> bool:
        """Did this branch go to ``target_pc`` more often than it fell
        through? Fall-through count is approximated as head count of the
        fall-through block minus the taken count."""
        taken = self.taken_count(branch_pc, target_pc)
        fall_head = branch_pc + 1
        fall = max(0, self.block_counts.get(fall_head, 0) - 0)
        # Fall-through executions of this branch == total branch executions
        # minus taken; total is approximated by the containing block's head
        # count, which we do not track per-branch. The edge count versus
        # fall-through head count comparison is a standard approximation.
        return taken > fall
