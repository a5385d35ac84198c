"""Cycle-driven list scheduler with speculative memory reordering.

The scheduler fills time slots in increasing cycle order (the property the
paper's Figure 13 relies on: once an instruction is scheduled, everything
scheduled later occupies the same or a later slot). It runs in two modes:

* **speculation mode** — breakable memory edges (MAY-alias dependences) are
  ignored for readiness, so loads can hoist above potentially aliasing
  stores and stores can reorder among themselves. Every time that actually
  happens, the attached :class:`AllocatorHook` (the SMARQ allocator) records
  the check/anti constraints and allocates alias registers.
* **non-speculation mode** — all memory edges are honoured; no new
  speculation is created, letting pending alias registers drain (overflow
  prevention, paper Section 5.3).

The scheduler consults the hook before making an instruction speculatively
ready, and after scheduling each instruction; the hook may splice pseudo
operations (``AMOV`` before, ``ROTATE`` after) into the linear output.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.ir.instruction import Instruction
from repro.sched.ddg import DataDependenceGraph
from repro.sched.machine import MachineModel


@dataclass
class SchedulerConfig:
    """Knobs controlling speculation policy."""

    speculate: bool = True
    #: MAY-alias pairs with a profiled alias rate above this are treated as
    #: unbreakable (speculating on them would cause rollback storms).
    alias_rate_threshold: float = 0.25
    #: allow speculative reordering of stores relative to stores
    allow_store_reorder: bool = True


class AllocatorHook:
    """Interface the SMARQ allocator implements; defaults are inert.

    A scheduler without a hook performs plain (possibly speculative)
    list scheduling with no alias register management — used for the
    no-alias-hardware baseline (non-speculative) and for tests.
    """

    def speculation_allowed(self, inst: Instruction) -> bool:
        """May ``inst`` be scheduled while breakable predecessors remain
        unscheduled? The allocator answers False when alias registers are
        about to overflow."""
        return True

    def on_scheduled(
        self, inst: Instruction, cycle: int
    ) -> Tuple[List[Instruction], List[Instruction]]:
        """Called after every instruction is placed. Returns
        ``(before, after)`` pseudo-op lists to splice around ``inst`` in the
        linear order."""
        return ([], [])

    def on_finish(self, linear: List[Instruction]) -> None:
        """Called once with the final linear order (operand fixups)."""


@dataclass
class ScheduleResult:
    """Outcome of scheduling one superblock.

    ``cycle_of`` maps uid -> issue cycle: the block's instructions in
    issue order, then the hook's pseudo-ops in linear order.
    """

    linear: List[Instruction]
    cycle_of: Dict[int, int]
    length_cycles: int
    speculated_pairs: int = 0

    def position(self) -> Dict[int, int]:
        """uid -> index in the linear order."""
        return {inst.uid: idx for idx, inst in enumerate(self.linear)}


@dataclass
class SchedulePrep:
    """Readiness and priority tables for one schedule, indexed by block
    position.

    Everything here is a pure function of the DDG edges, the scheduler
    policy and the alias profile (hints + bans), computed by
    :meth:`ListScheduler.prepare`. ``succ_adj[i]`` holds ``(dst_position,
    latency, honoured)`` per outgoing edge; ``honoured`` is the per-edge
    constant the readiness loop tests instead of re-deriving the
    speculation rules. ``hard_left``/``spec_left`` count each position's
    honoured/breakable incoming edges; :meth:`ListScheduler.schedule`
    builds one per call and counts them down as sources issue.
    """

    hard_left: List[int]
    spec_left: List[int]
    succ_adj: List[List[Tuple[int, int, bool]]]
    height: List[int]


class ListScheduler:
    """List scheduling over a :class:`DataDependenceGraph`."""

    def __init__(
        self,
        machine: MachineModel,
        config: Optional[SchedulerConfig] = None,
        hook: Optional[AllocatorHook] = None,
        tracer=None,
    ) -> None:
        from repro.engine.instrumentation import NULL_TRACER

        self.machine = machine
        self.config = config or SchedulerConfig()
        self.hook = hook or AllocatorHook()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    def prepare(
        self, ddg: DataDependenceGraph, alias_analysis=None
    ) -> SchedulePrep:
        """Build the position-indexed readiness/priority tables.

        Whether an edge is a hard ordering requirement depends only on
        inputs fixed for the whole schedule (the speculation mode, the
        store-reorder policy, the alias analysis), so it is decided once
        per edge here and the readiness loop tests a precomputed bool.
        """
        instructions = list(ddg.block)
        n = len(instructions)
        config = self.config
        speculating = config.speculate
        reorder_stores = config.allow_store_reorder
        threshold = config.alias_rate_threshold

        hard = [0] * n
        spec = [0] * n
        succ: List[List[Tuple[int, int, bool]]] = [[] for _ in range(n)]
        for src, dst, _kind, latency, breakable in ddg.edges:
            honoured = not (breakable and speculating)
            if not honoured:
                a = instructions[src]
                b = instructions[dst]
                honoured = (
                    not reorder_stores and a.is_store and b.is_store
                ) or (
                    alias_analysis is not None
                    and (
                        alias_analysis.speculation_banned(a)
                        or alias_analysis.speculation_banned(b)
                        or alias_analysis.alias_rate(a, b) > threshold
                    )
                )
            if honoured:
                hard[dst] += 1
            else:
                spec[dst] += 1
            succ[src].append((dst, latency, honoured))

        # Priority: latency-weighted height over always-honoured edges,
        # computed with speculation on (optimistic heights pull loads up).
        # Edges always point forward in program order, so one reverse pass
        # over the adjacency just built resolves every height.
        height = [0] * n
        for i in range(n - 1, -1, -1):
            best = 0
            for dst, latency, honoured in succ[i]:
                if honoured:
                    candidate = latency + height[dst]
                    if candidate > best:
                        best = candidate
            height[i] = best

        return SchedulePrep(hard, spec, succ, height)

    # ------------------------------------------------------------------
    def schedule(
        self, ddg: DataDependenceGraph, alias_analysis=None
    ) -> ScheduleResult:
        instructions = list(ddg.block)
        n = len(instructions)
        prep = self.prepare(ddg, alias_analysis)

        # Readiness is maintained incrementally, per block position: the
        # count of honoured/breakable incoming edges whose source is still
        # unscheduled, a running earliest-issue cycle raised as sources
        # are placed, and the ready set of positions whose honoured
        # sources are all placed. A pass over one cycle only looks at the
        # ready set, and the functional unit is resolved once per
        # instruction.
        hard_left = prep.hard_left
        spec_left = prep.spec_left
        succ_adj = prep.succ_adj
        height = prep.height
        earliest_at = [0] * n
        op_table = self.machine.op_table
        units = [op_table[inst.opcode][0] for inst in instructions]
        slots_for = self.machine.slots_for
        capacity = {unit: slots_for(unit) for unit in set(units)}
        issue_width = self.machine.issue_width
        allowed = self.hook.speculation_allowed
        on_scheduled = self.hook.on_scheduled

        track_alloc = self.tracer.active
        alloc_seconds = 0.0

        cycle_of: Dict[int, int] = {}  # uid -> cycle, in issue order
        linear: List[Instruction] = []
        speculated_pairs = 0
        ready = {i for i in range(n) if not hard_left[i]}
        remaining = n
        cycle = 0
        # Per-cycle resource state persists until the cycle advances.
        slots_used: Dict[object, int] = {}
        issued = 0
        while remaining:
            # Collect instructions issuable this cycle. The hook is asked
            # about every speculative one, every pass: its answer (and its
            # throttle count) follows its register pressure.
            candidates: List[Tuple[int, int, bool]] = []
            throttled = False
            for i in ready:
                if earliest_at[i] > cycle:
                    continue
                speculative = spec_left[i] > 0
                if speculative and not allowed(instructions[i]):
                    throttled = True
                    continue
                candidates.append((-height[i], i, speculative))
            if not candidates:
                if not ready:
                    raise RuntimeError(
                        "scheduler failed to converge (cycle in DDG?)"
                    )
                # Jump to the first cycle anything ready can issue in,
                # unless the hook throttled a candidate: it is asked
                # again every cycle (its throttle count sees every ask).
                cycle = (
                    cycle + 1
                    if throttled
                    else min(earliest_at[i] for i in ready)
                )
                slots_used = {}
                issued = 0
                continue
            candidates.sort()

            # Fill what remains of this cycle's slots. Instructions made
            # ready by this pass's issues wait for the next pass.
            issued_any = False
            for _, i, speculative in candidates:
                if issued >= issue_width:
                    break
                unit = units[i]
                used = slots_used.get(unit, 0)
                if used >= capacity[unit]:
                    continue
                inst = instructions[i]
                # Re-verify: an issue earlier in this pass may have changed
                # speculation permission (allocator register pressure).
                if speculative and not allowed(inst):
                    continue
                slots_used[unit] = used + 1
                issued += 1
                issued_any = True
                cycle_of[inst.uid] = cycle
                ready.discard(i)
                remaining -= 1
                if spec_left[i] and inst.is_mem:
                    speculated_pairs += 1
                for dst, latency, honoured in succ_adj[i]:
                    if honoured:
                        left = hard_left[dst] - 1
                        hard_left[dst] = left
                        available = cycle + latency
                        if available > earliest_at[dst]:
                            earliest_at[dst] = available
                        if not left:
                            ready.add(dst)
                    else:
                        spec_left[dst] -= 1
                if track_alloc:
                    t0 = perf_counter()
                    before, after = on_scheduled(inst, cycle)
                    alloc_seconds += perf_counter() - t0
                else:
                    before, after = on_scheduled(inst, cycle)
                if before:
                    linear.extend(before)
                linear.append(inst)
                if after:
                    linear.extend(after)
            if not issued_any:
                cycle += 1
                slots_used = {}
                issued = 0

        # Issue cycles never decrease, so the last issue is the latest.
        length = 1 + (cycle if n else 0)
        if track_alloc:
            t0 = perf_counter()
            self.hook.on_finish(linear)
            alloc_seconds += perf_counter() - t0
            self.tracer.add_time("optimize.alloc", alloc_seconds)
        else:
            self.hook.on_finish(linear)
        if len(linear) > n:
            # Pseudo-ops ride along in the cycle of the next instruction
            # of the block after them (the last cycle when none follows).
            pseudo: List[Tuple[int, int]] = []
            following = length - 1
            for inst in reversed(linear):
                issued_at = cycle_of.get(inst.uid)
                if issued_at is None:
                    pseudo.append((inst.uid, following))
                else:
                    following = issued_at
            for uid, at in reversed(pseudo):
                cycle_of.setdefault(uid, at)
        return ScheduleResult(
            linear=linear,
            cycle_of=cycle_of,
            length_cycles=length,
            speculated_pairs=speculated_pairs,
        )
