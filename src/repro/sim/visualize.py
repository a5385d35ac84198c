"""ASCII visualization of scheduled regions.

``render_bundles`` shows a region's schedule as the VLIW would issue it:
one row per cycle, one column per functional-unit slot, with the SMARQ
annotations inline. Meant for debugging schedules and for documentation —
the quickest way to *see* whether loads actually hoisted.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.instruction import Instruction
from repro.ir.printer import format_instruction
from repro.sched.machine import FunctionalUnit, MachineModel


def _annotate(inst: Instruction) -> str:
    text = format_instruction(inst)
    tags = []
    if inst.p_bit:
        tags.append("P")
    if inst.c_bit:
        tags.append("C")
    if inst.ar_offset is not None:
        tags.append(f"@{inst.ar_offset}")
    if inst.ar_mask:
        tags.append(f"m={inst.ar_mask:#x}")
    if tags:
        return f"{text} [{' '.join(tags)}]"
    return text


def render_bundles(
    linear: List[Instruction],
    cycle_of: Dict[int, int],
    machine: Optional[MachineModel] = None,
    max_cycles: Optional[int] = None,
) -> str:
    """Render the schedule as per-cycle bundles.

    ``cycle_of`` maps instruction uid -> issue cycle (as produced by
    :class:`~repro.sched.list_scheduler.ScheduleResult`).
    """
    by_cycle: Dict[int, List[Instruction]] = {}
    for inst in linear:
        cycle = cycle_of.get(inst.uid, 0)
        by_cycle.setdefault(cycle, []).append(inst)

    lines: List[str] = []
    cycles = sorted(by_cycle)
    if max_cycles is not None:
        cycles = cycles[:max_cycles]
    for cycle in cycles:
        slots = " | ".join(_annotate(i) for i in by_cycle[cycle])
        lines.append(f"cycle {cycle:>3}: {slots}")
    if max_cycles is not None and len(by_cycle) > max_cycles:
        lines.append(f"... ({len(by_cycle) - max_cycles} more cycles)")
    return "\n".join(lines)


def render_region_summary(region) -> str:
    """One-paragraph description of an optimized region."""
    block = region.block
    schedule = region.schedule
    parts = [
        f"region @ {block.entry_pc}: {len(block)} instructions, "
        f"{len(block.memory_ops())} memory ops, "
        f"{schedule.length_cycles} scheduled cycles"
    ]
    if region.allocation is not None:
        stats = region.allocation.stats
        parts.append(
            f"constraints: {stats.check_constraints} check / "
            f"{stats.anti_constraints} anti; registers: "
            f"{stats.registers_allocated} allocated, working set "
            f"{stats.working_set}"
        )
    if region.loads_eliminated or region.stores_eliminated:
        parts.append(
            f"eliminated: {region.loads_eliminated} loads, "
            f"{region.stores_eliminated} stores"
        )
    return "; ".join(parts)
