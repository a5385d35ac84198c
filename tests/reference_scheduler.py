"""Differential reference for the list scheduler: the object-edge DDG
and uid-dict list scheduler that :mod:`repro.sched` replaced with its
position-indexed core, kept as they were so a property test can compare
the two schedulers decision for decision (``tests/test_list_scheduler.py``).

Not a test module: pytest collects nothing here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.analysis.dependence import Dependence
from repro.ir.instruction import Instruction


class EdgeKind(enum.Enum):
    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"
    CONTROL = "control"
    MEMORY = "memory"


@dataclass(frozen=True)
class DdgEdge:
    src: Instruction
    dst: Instruction
    kind: EdgeKind
    latency: int = 0
    #: memory edges only: True when the optimizer may speculatively break
    #: this edge (MAY alias) relying on alias hardware.
    speculative_breakable: bool = False


class DataDependenceGraph:
    """DDG in original program order, built once per superblock."""

    def __init__(
        self,
        block,
        machine,
        memory_dependences: Iterable[Dependence] = (),
        allow_store_reorder: bool = True,
        speculation_policy: str = "full",
    ) -> None:
        if speculation_policy not in ("full", "loads_only"):
            raise ValueError(f"unknown speculation policy {speculation_policy!r}")
        self.block = block
        self._speculation_policy = speculation_policy
        self._succ: Dict[int, List[DdgEdge]] = {}
        self._pred: Dict[int, List[DdgEdge]] = {}
        #: every edge in global insertion order
        self._edges: List[DdgEdge] = []
        #: dedup index: (src_uid, dst_uid, kind) -> highest latency kept
        self._best: Dict[Tuple[int, int, EdgeKind], int] = {}
        for inst in block:
            self._succ[inst.uid] = []
            self._pred[inst.uid] = []
        self._build_register_edges(block, machine)
        self._build_control_edges(block)
        self._build_memory_edges(block, memory_dependences, allow_store_reorder)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add(self, edge: DdgEdge) -> None:
        if edge.src is edge.dst:
            return
        # Duplicate (src, dst, kind) edges (e.g. a register used twice)
        # keep only the highest latency; successive survivors strictly
        # increase, so one running maximum decides in O(1).
        key = (edge.src.uid, edge.dst.uid, edge.kind)
        best = self._best.get(key)
        if best is not None and edge.latency <= best:
            return
        self._best[key] = edge.latency
        self._succ[edge.src.uid].append(edge)
        self._pred[edge.dst.uid].append(edge)
        self._edges.append(edge)

    def _build_register_edges(self, block, machine) -> None:
        last_def: Dict[int, Instruction] = {}
        uses_since_def: Dict[int, List[Instruction]] = {}
        for inst in block:
            for reg in inst.uses():
                producer = last_def.get(reg)
                if producer is not None:
                    self._add(
                        DdgEdge(
                            producer,
                            inst,
                            EdgeKind.FLOW,
                            latency=machine.latency_of(producer),
                        )
                    )
                uses_since_def.setdefault(reg, []).append(inst)
            for reg in inst.defs():
                previous = last_def.get(reg)
                if previous is not None:
                    self._add(DdgEdge(previous, inst, EdgeKind.OUTPUT, latency=1))
                for user in uses_since_def.get(reg, ()):
                    self._add(DdgEdge(user, inst, EdgeKind.ANTI, latency=0))
                last_def[reg] = inst
                uses_since_def[reg] = []

    def _build_control_edges(self, block) -> None:
        instructions = list(block)
        branches = [i for i in instructions if i.is_branch]
        if not branches:
            return
        final = instructions[-1]
        # Each branch pins every *later* store (a store may not become
        # architectural on a path that already left the region) and every
        # later branch (branches stay ordered). Only stores/branches can be
        # edge targets, so scan that subsequence instead of the whole block.
        targets = [
            (idx, inst)
            for idx, inst in enumerate(instructions)
            if inst.is_store or inst.is_branch
        ]
        positions = {inst.uid: idx for idx, inst in enumerate(instructions)}
        for branch in branches:
            bpos = positions[branch.uid]
            for ipos, inst in targets:
                if ipos <= bpos:
                    continue
                if inst.is_store:
                    self._add(DdgEdge(branch, inst, EdgeKind.CONTROL, latency=0))
                # Branches stay in order relative to each other.
                if inst.is_branch and inst is not branch:
                    self._add(DdgEdge(branch, inst, EdgeKind.CONTROL, latency=0))
        # Nothing moves below the terminating branch.
        if final.is_branch:
            for inst in instructions[:-1]:
                self._add(DdgEdge(inst, final, EdgeKind.CONTROL, latency=0))

    def _build_memory_edges(
        self,
        block,
        memory_dependences: Iterable[Dependence],
        allow_store_reorder: bool,
    ) -> None:
        positions = {inst.uid: idx for idx, inst in enumerate(block)}
        for dep in memory_dependences:
            if dep.extended:
                # Extended dependences do not order the schedule; they only
                # produce constraints (the allocator consumes them directly).
                continue
            if dep.src.uid not in positions or dep.dst.uid not in positions:
                continue
            breakable = not dep.must
            if (
                breakable
                and not allow_store_reorder
                and dep.src.is_store
                and dep.dst.is_store
            ):
                # Store-store reordering disabled (Itanium model / Fig 16).
                breakable = False
            if breakable and self._speculation_policy == "loads_only":
                # Only "hoist later load above earlier store" is breakable.
                breakable = dep.dst.is_load

            self._add(
                DdgEdge(
                    dep.src,
                    dep.dst,
                    EdgeKind.MEMORY,
                    latency=1 if dep.src.is_store or dep.dst.is_store else 0,
                    speculative_breakable=breakable,
                )
            )

    def iter_predecessors(self, inst: Instruction) -> List[DdgEdge]:
        return self._pred[inst.uid]


class ReferenceScheduler:
    """The uid-dict list scheduler over :class:`DataDependenceGraph`."""

    def __init__(self, machine, config, hook) -> None:
        self.machine = machine
        self.config = config
        self.hook = hook

    def prepare(self, ddg, alias_analysis=None):
        instructions = list(ddg.block)
        n = len(instructions)
        pos = {inst.uid: i for i, inst in enumerate(instructions)}
        speculating = self.config.speculate

        def edge_honoured(edge) -> bool:
            """Is this edge a hard ordering requirement?

            Every input (the speculation mode, the store-reorder policy,
            the alias analysis) is fixed for the duration of one schedule,
            so the answer is a per-edge constant and is evaluated exactly
            once here — the readiness loop then tests a precomputed bool
            instead of re-deriving this chain per instruction per cycle.
            """
            if edge.kind is not EdgeKind.MEMORY:
                return True
            if not edge.speculative_breakable:
                return True
            if not speculating:
                return True
            if not self.config.allow_store_reorder and (
                edge.src.is_store and edge.dst.is_store
            ):
                return True
            if alias_analysis is not None:
                if alias_analysis.speculation_banned(
                    edge.src
                ) or alias_analysis.speculation_banned(edge.dst):
                    return True
                rate = alias_analysis.alias_rate(edge.src, edge.dst)
                if rate > self.config.alias_rate_threshold:
                    return True
            return False

        hard = [0] * n
        spec = [0] * n
        succ: List[List[Tuple[int, int, bool]]] = [[] for _ in range(n)]
        for di, inst in enumerate(instructions):
            for edge in ddg.iter_predecessors(inst):
                honoured = edge_honoured(edge)
                if honoured:
                    hard[di] += 1
                else:
                    spec[di] += 1
                succ[pos[edge.src.uid]].append((di, edge.latency, honoured))

        # Priority: latency-weighted height over always-honoured edges,
        # computed with speculation on (optimistic heights pull loads up).
        # Edges always point forward in program order, so one reverse pass
        # over the adjacency just built resolves every height.
        height = [0] * n
        for i in range(n - 1, -1, -1):
            best = 0
            for dst_pos, latency, honoured in succ[i]:
                if honoured:
                    candidate = latency + height[dst_pos]
                    if candidate > best:
                        best = candidate
            height[i] = best

        return (
            tuple(hard),
            tuple(spec),
            tuple(tuple(entries) for entries in succ),
            tuple(height),
        )

    def schedule(self, ddg, alias_analysis=None):
        """``(linear, cycle_of, length_cycles, speculated_pairs)``."""
        instructions = list(ddg.block)
        n = len(instructions)
        program_pos = {inst.uid: i for i, inst in enumerate(instructions)}
        by_uid = {inst.uid: inst for inst in instructions}
        prep_hard, prep_spec, prep_succ, prep_height = self.prepare(
            ddg, alias_analysis
        )

        # Readiness is maintained incrementally instead of re-derived by
        # walking predecessor lists every cycle: per uid we keep the count
        # of honoured/breakable predecessor edges whose source is still
        # unscheduled, plus a running earliest-issue cycle updated when a
        # source is placed. The per-candidate test is then O(1), and the
        # functional unit and latency are resolved once per instruction
        # (no enum hashing per cycle). The tables come position-indexed
        # from ``prep`` (possibly memoized) and are re-keyed by uid here
        # because this block's uids are private to it.
        uids = [inst.uid for inst in instructions]
        hard_left: Dict[int, int] = dict(zip(uids, prep_hard))
        spec_left: Dict[int, int] = dict(zip(uids, prep_spec))
        earliest_at: Dict[int, int] = dict.fromkeys(uids, 0)
        succ_adj: Dict[int, List[Tuple[int, int, bool]]] = {
            uids[i]: [
                (uids[dst_pos], latency, honoured)
                for dst_pos, latency, honoured in prep_succ[i]
            ]
            for i in range(n)
        }
        height: Dict[int, int] = dict(zip(uids, prep_height))
        op_table = self.machine.op_table
        unit_lat = {inst.uid: op_table[inst.opcode] for inst in instructions}

        scheduled: Dict[int, int] = {}  # uid -> cycle
        linear: List[Instruction] = []
        speculated_pairs = 0

        cycle = 0
        remaining = set(inst.uid for inst in instructions)

        def ready_info(uid: int) -> Tuple[bool, int, bool]:
            """(deps_satisfied, earliest_cycle, is_speculative_now)."""
            if hard_left[uid]:
                return (False, 0, False)
            return (True, earliest_at[uid], spec_left[uid] > 0)

        safety_limit = 50 * (n + 1) + 10000
        iterations = 0
        # Per-cycle resource state persists until the cycle advances.
        slots_used: Dict[object, int] = {}
        issued = 0
        issue_width = self.machine.issue_width
        slots_for = self.machine.slots_for
        while remaining:
            iterations += 1
            if iterations > safety_limit:
                raise RuntimeError("scheduler failed to converge (cycle in DDG?)")

            # Collect instructions issuable this cycle.
            candidates: List[Tuple[int, int, Instruction, bool]] = []
            for uid in remaining:
                if hard_left[uid] or earliest_at[uid] > cycle:
                    continue
                speculative = spec_left[uid] > 0
                if speculative and not self.hook.speculation_allowed(
                    by_uid[uid]
                ):
                    continue
                candidates.append(
                    (-height[uid], program_pos[uid], by_uid[uid], speculative)
                )
            if not candidates:
                cycle += 1
                slots_used = {}
                issued = 0
                continue
            candidates.sort(key=lambda c: (c[0], c[1]))

            # Fill what remains of this cycle's slots.
            issued_any = False
            for _, _, inst, speculative in candidates:
                if issued >= issue_width:
                    break
                unit, _latency = unit_lat[inst.uid]
                if slots_used.get(unit, 0) >= slots_for(unit):
                    continue
                # Re-verify: an issue earlier in this pass may have changed
                # speculation permission (allocator register pressure).
                if speculative and not self.hook.speculation_allowed(inst):
                    continue
                ok, earliest, speculative_now = ready_info(inst.uid)
                if not ok or earliest > cycle:
                    continue
                slots_used[unit] = slots_used.get(unit, 0) + 1
                issued += 1
                issued_any = True
                scheduled[inst.uid] = cycle
                remaining.discard(inst.uid)
                for dst_uid, latency, honoured in succ_adj[inst.uid]:
                    if honoured:
                        hard_left[dst_uid] -= 1
                        available = cycle + latency
                        if available > earliest_at[dst_uid]:
                            earliest_at[dst_uid] = available
                    else:
                        spec_left[dst_uid] -= 1
                if speculative_now and inst.is_mem:
                    speculated_pairs += 1
                before, after = self.hook.on_scheduled(inst, cycle)
                linear.extend(before)
                linear.append(inst)
                linear.extend(after)
            if not issued_any:
                cycle += 1
                slots_used = {}
                issued = 0

        length = 1 + max(scheduled.values(), default=0)
        self.hook.on_finish(linear)
        cycle_of = dict(scheduled)
        # Pseudo-ops ride along in the issuing instruction's cycle.
        for idx, inst in enumerate(linear):
            if inst.uid not in cycle_of:
                neighbor = next(
                    (linear[j].uid for j in range(idx + 1, len(linear))
                     if linear[j].uid in cycle_of),
                    None,
                )
                if neighbor is None:
                    neighbor_cycle = length - 1
                else:
                    neighbor_cycle = cycle_of[neighbor]
                cycle_of[inst.uid] = neighbor_cycle
        return linear, cycle_of, length, speculated_pairs
