"""Data dependence graph over a superblock.

Edges:

* register **flow** (def -> use), **anti** (use -> def), **output**
  (def -> def), each with the producing op's latency (anti/output carry
  latency 0/1 respectively — in-order VLIW semantics);
* **control**: side-exit branches pin all earlier-in-program-order stores
  (a store may not move above a branch it could escape through; loads MAY
  hoist above branches — that is control speculation, safe in our atomic
  regions because rollback undoes everything), and nothing may move above
  the region's final branch;
* **memory**: the dependences from :mod:`repro.analysis.dependence`. Each
  memory edge is tagged with whether it is breakable by alias speculation
  (MAY alias) or not (MUST alias).

The graph *is* its edge list: one ``(src_position, dst_position, kind,
latency, breakable)`` tuple per edge, positions indexing the block in
program order. No per-edge or per-instruction objects are built, and the
scheduler reads the tuples directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.analysis.dependence import Dependence

#: edge kinds (the third field of an edge tuple)
FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"
CONTROL = "control"
MEMORY = "memory"

#: ``(src_position, dst_position, kind, latency, breakable)``; only
#: memory edges are ever breakable (MAY alias the optimizer may
#: speculatively reorder, relying on alias hardware)
Edge = Tuple[int, int, str, int, bool]


class DataDependenceGraph:
    """DDG in original program order, built once per superblock.

    ``edges`` holds every edge in global insertion order; every edge
    points forward in program order (``src_position < dst_position``).
    """

    def __init__(
        self,
        block,
        machine,
        memory_dependences: Iterable[Dependence] = (),
        allow_store_reorder: bool = True,
        speculation_policy: str = "full",
    ) -> None:
        """``speculation_policy`` is ``"full"`` (any MAY-alias pair may be
        reordered) or ``"loads_only"`` (only loads may hoist above stores —
        the ALAT restriction)."""
        if speculation_policy not in ("full", "loads_only"):
            raise ValueError(f"unknown speculation policy {speculation_policy!r}")
        self.block = block
        instructions = list(block)
        built: List[Edge] = []
        # Duplicate (src, dst, kind) edges (e.g. a register used twice)
        # are dropped unless their latency exceeds every earlier one's;
        # successive survivors strictly increase, so one running maximum
        # decides in O(1).
        best: Dict[Tuple[int, int, str], int] = {}

        def add(src: int, dst: int, kind: str, latency: int,
                breakable: bool = False) -> None:
            if src == dst:
                return
            key = (src, dst, kind)
            previous = best.get(key)
            if previous is not None and latency <= previous:
                return
            best[key] = latency
            built.append((src, dst, kind, latency, breakable))

        _register_edges(instructions, machine, add)
        _control_edges(instructions, add)
        _memory_edges(
            instructions,
            memory_dependences,
            allow_store_reorder,
            speculation_policy,
            add,
        )
        self.edges: Tuple[Edge, ...] = tuple(built)


def _register_edges(instructions, machine, add) -> None:
    last_def: Dict[int, int] = {}
    uses_since_def: Dict[int, List[int]] = {}
    latency_of = machine.latency_of
    for pos, inst in enumerate(instructions):
        for reg in inst.uses():
            producer = last_def.get(reg)
            if producer is not None:
                add(producer, pos, FLOW, latency_of(instructions[producer]))
            uses_since_def.setdefault(reg, []).append(pos)
        for reg in inst.defs():
            previous = last_def.get(reg)
            if previous is not None:
                add(previous, pos, OUTPUT, 1)
            for user in uses_since_def.get(reg, ()):
                add(user, pos, ANTI, 0)
            last_def[reg] = pos
            uses_since_def[reg] = []


def _control_edges(instructions, add) -> None:
    # Each branch pins every *later* store (a store may not become
    # architectural on a path that already left the region) and every
    # later branch (branches stay ordered). Only stores/branches can be
    # edge targets, so scan that subsequence instead of the whole block.
    targets = [
        pos
        for pos, inst in enumerate(instructions)
        if inst.is_store or inst.is_branch
    ]
    for first, bpos in enumerate(targets):
        if instructions[bpos].is_branch:
            for ipos in targets[first + 1:]:
                add(bpos, ipos, CONTROL, 0)
    # Nothing moves below the terminating branch.
    if instructions and instructions[-1].is_branch:
        final = len(instructions) - 1
        for pos in range(final):
            add(pos, final, CONTROL, 0)


def _memory_edges(
    instructions,
    memory_dependences: Iterable[Dependence],
    allow_store_reorder: bool,
    speculation_policy: str,
    add,
) -> None:
    positions = {inst.uid: pos for pos, inst in enumerate(instructions)}
    for dep in memory_dependences:
        if dep.extended:
            # Extended dependences do not order the schedule; they only
            # produce constraints (the allocator consumes them directly).
            continue
        src = positions.get(dep.src.uid)
        dst = positions.get(dep.dst.uid)
        if src is None or dst is None:
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
        if breakable and speculation_policy == "loads_only":
            # Only "hoist later load above earlier store" is breakable.
            breakable = dep.dst.is_load
        add(
            src,
            dst,
            MEMORY,
            1 if dep.src.is_store or dep.dst.is_store else 0,
            breakable,
        )
