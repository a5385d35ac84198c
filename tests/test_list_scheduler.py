"""Unit tests for the list scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.aliasinfo import AliasAnalysis
from repro.analysis.dependence import DependenceSet, compute_dependences
from repro.fuzz import generate_case
from repro.ir.instruction import (
    Instruction,
    Opcode,
    binop,
    branch,
    fbinop,
    load,
    movi,
    store,
)
from repro.ir.superblock import Superblock
from repro.sched.ddg import DataDependenceGraph
from repro.sched.list_scheduler import (
    AllocatorHook,
    ListScheduler,
    SchedulerConfig,
)
from repro.sched.machine import MachineModel, VLIW_DEFAULT
from repro.smarq.allocator import SmarqAllocator
from repro.smarq.bitmask_alloc import BitmaskAllocator
from repro.smarq.plain_order_alloc import PlainOrderAllocator

from tests.reference_scheduler import (
    DataDependenceGraph as ReferenceDdg,
    ReferenceScheduler,
)


def schedule(insts, config=None, hook=None, machine=None, **ddg_kwargs):
    block = Superblock(instructions=list(insts))
    analysis = AliasAnalysis(block)
    deps = compute_dependences(block, analysis)
    machine = machine or VLIW_DEFAULT
    ddg = DataDependenceGraph(
        block, machine, memory_dependences=deps, **ddg_kwargs
    )
    scheduler = ListScheduler(machine, config or SchedulerConfig(), hook)
    return block, scheduler.schedule(ddg, alias_analysis=analysis)


class TestOrderingCorrectness:
    def test_flow_dependence_respected(self):
        block, result = schedule([load(1, 2), binop(Opcode.ADD, 3, 1, 1)])
        pos = result.position()
        assert pos[block[0].uid] < pos[block[1].uid]
        # load latency respected in cycles
        assert (
            result.cycle_of[block[1].uid] >= result.cycle_of[block[0].uid] + 3
        )

    def test_speculation_reorders_may_alias(self):
        # store's data arrives late (fed by a load): the later load hoists
        insts = [load(9, 8), store(5, 9), load(2, 6)]
        block, result = schedule(insts)
        pos = result.position()
        st_op = block.memory_ops()[1]
        ld_op = block.memory_ops()[2]
        assert pos[ld_op.uid] < pos[st_op.uid]
        assert result.speculated_pairs >= 1

    def test_no_speculation_keeps_order(self):
        block, result = schedule(
            [store(5, 1), load(2, 6)], config=SchedulerConfig(speculate=False)
        )
        pos = result.position()
        st_op, ld_op = block.memory_ops()
        assert pos[st_op.uid] < pos[ld_op.uid]

    def test_must_alias_never_reordered(self):
        block, result = schedule(
            [store(5, 1, disp=0, size=8), load(2, 5, disp=0, size=8)]
        )
        pos = result.position()
        st_op, ld_op = block.memory_ops()
        assert pos[st_op.uid] < pos[ld_op.uid]

    def test_high_alias_rate_pair_not_reordered(self):
        block = Superblock(instructions=[store(5, 1), load(2, 6)])
        analysis = AliasAnalysis(block, alias_hints={(0, 1): 0.9})
        deps = compute_dependences(block, analysis)
        ddg = DataDependenceGraph(block, VLIW_DEFAULT, memory_dependences=deps)
        result = ListScheduler(VLIW_DEFAULT, SchedulerConfig()).schedule(
            ddg, alias_analysis=analysis
        )
        pos = result.position()
        st_op, ld_op = block.memory_ops()
        assert pos[st_op.uid] < pos[ld_op.uid]

    def test_all_instructions_scheduled(self):
        insts = [movi(i % 8, i) for i in range(20)]
        block, result = schedule(insts)
        assert len(result.linear) == 20


class TestResources:
    def test_memory_port_limit(self):
        # 6 independent loads, 2 mem ports: at least 3 cycles
        insts = [load(i, 10 + i) for i in range(6)]
        block, result = schedule(insts)
        cycles = {result.cycle_of[i.uid] for i in block}
        assert len(cycles) >= 3

    def test_issue_width_limit(self):
        machine = MachineModel(issue_width=1)
        insts = [movi(i, i) for i in range(4)]
        block, result = schedule(insts, machine=machine)
        cycles = [result.cycle_of[i.uid] for i in block]
        assert sorted(cycles) == [0, 1, 2, 3]

    def test_fpu_slots(self):
        # 4 independent FP ops, 2 FPU slots: 2 cycles minimum
        insts = [fbinop(Opcode.FADD, 10 + i, 1, 2) for i in range(4)]
        block, result = schedule(insts)
        cycles = {result.cycle_of[i.uid] for i in block}
        assert len(cycles) >= 2


class RecordingHook(AllocatorHook):
    def __init__(self, allow=True):
        self.scheduled = []
        self.allow = allow
        self.finished = None

    def speculation_allowed(self, inst):
        return self.allow

    def on_scheduled(self, inst, cycle):
        self.scheduled.append((inst, cycle))
        return ([], [])

    def on_finish(self, linear):
        self.finished = list(linear)


class TestHookIntegration:
    def test_hook_called_per_instruction(self):
        hook = RecordingHook()
        block, result = schedule([movi(1, 0), load(2, 3)], hook=hook)
        assert len(hook.scheduled) == 2
        assert hook.finished == result.linear

    def test_hook_denies_speculation(self):
        hook = RecordingHook(allow=False)
        block, result = schedule([store(5, 1), load(2, 6)], hook=hook)
        pos = result.position()
        st_op, ld_op = block.memory_ops()
        # without permission, the load cannot pass the store
        assert pos[st_op.uid] < pos[ld_op.uid]

    def test_hook_splices_pseudo_ops(self):
        from repro.ir.instruction import rotate

        class Splicer(AllocatorHook):
            def on_scheduled(self, inst, cycle):
                if inst.is_store:
                    return ([], [rotate(1)])
                return ([], [])

        block, result = schedule([store(5, 1)], hook=Splicer())
        assert [i.opcode for i in result.linear] == [Opcode.ST, Opcode.ROTATE]


class TestScheduleResult:
    def test_length_cycles_positive(self):
        block, result = schedule([movi(1, 0)])
        assert result.length_cycles >= 1

    def test_pseudo_ops_get_cycles(self):
        from repro.ir.instruction import rotate

        class Splicer(AllocatorHook):
            def on_scheduled(self, inst, cycle):
                return ([rotate(1)], [rotate(2)])

        block, result = schedule([movi(1, 0)], hook=Splicer())
        for inst in result.linear:
            assert inst.uid in result.cycle_of


# ----------------------------------------------------------------------
# Differential property: the position-indexed core against the
# uid-dict scheduler and object-edge DDG it replaced
# ----------------------------------------------------------------------
HOOKS = ("smarq", "plainorder", "bitmask", "none")

#: (hook, speculation policy, store reorder, speculate): every hook
#: under both policies with and without store reordering, plus the
#: non-speculative schedule the no-alias-hardware baseline uses
COMBOS = [
    (hook, policy, reorder, True)
    for hook in HOOKS
    for policy in ("full", "loads_only")
    for reorder in (True, False)
] + [("none", "full", True, False)]


def _fuzz_block(seed, exits, hint, ban):
    """One ``generate_case`` body (plus side exits and a final branch
    when ``exits``), its alias analysis (an alias hint on one pair and
    a ban on one op when asked), memory dependences and machine."""
    case = generate_case(seed)
    insts = case.body()
    for k in range(exits):
        insts.insert((k + 1) * len(insts) // (exits + 1),
                     branch(Opcode.BEQ, 0, srcs=(20 + k, 21)))
    if exits:
        insts.append(branch(Opcode.BR, 0))
    block = Superblock(instructions=insts)
    mem = len(block.memory_ops())
    hints = {}
    if hint is not None and mem >= 2:
        lo = hint % (mem - 1)
        hints[(lo, lo + 1 + hint % (mem - lo - 1))] = 0.9
    banned = {ban % mem} if ban is not None and mem else set()
    analysis = AliasAnalysis(
        block,
        region_map=case.known_region_map(),
        initial_regions=case.known_initial_regions(),
        alias_hints=hints,
        no_speculate=banned,
    )
    deps = compute_dependences(block, analysis)
    machine = MachineModel().with_alias_registers(
        case.config.alias_registers
    )
    return block, analysis, deps, machine


def _make_hook(name, machine, block, deps):
    deps = DependenceSet(deps)
    order = list(block.instructions)
    if name == "smarq":
        return SmarqAllocator(machine, deps, order)
    if name == "plainorder":
        return PlainOrderAllocator(machine, deps, order)
    if name == "bitmask":
        return BitmaskAllocator(
            machine, deps, order,
            num_registers=min(15, machine.alias_registers),
        )
    return None


def _annotations(inst):
    return (
        inst.uid, inst.opcode, inst.p_bit, inst.c_bit, inst.ar_offset,
        inst.ar_order, inst.ar_mask, inst.rotate_by, inst.amov_src,
        inst.amov_dst,
    )


class TestMatchesUidDictScheduler:
    """Same linear order, same issue cycles (in the same dict order),
    same length, same speculated pairs and same allocator statistics —
    so the same calls into the hooks — as the scheduler it replaced.

    Both schedulers run over the same block (its allocator annotations
    reset in between), so block instructions keep their uids; the
    pseudo-ops each run splices in are compared by position."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        exits=st.integers(0, 2),
        hint=st.one_of(st.none(), st.integers(0, 99)),
        ban=st.one_of(st.none(), st.integers(0, 99)),
    )
    def test_same_schedule(self, seed, exits, hint, ban):
        block, analysis, deps, machine = _fuzz_block(seed, exits, hint, ban)
        pristine = [dict(vars(inst)) for inst in block]
        for hook, policy, reorder, speculate in COMBOS:
            config = SchedulerConfig(
                speculate=speculate, allow_store_reorder=reorder
            )
            runs = []
            for build, scheduler in (
                (DataDependenceGraph, ListScheduler),
                (ReferenceDdg, ReferenceScheduler),
            ):
                for inst, state in zip(block, pristine):
                    vars(inst).update(state)
                ddg = build(
                    block, machine, memory_dependences=deps,
                    allow_store_reorder=reorder, speculation_policy=policy,
                )
                allocator = _make_hook(hook, machine, block, deps)
                result = scheduler(
                    machine, config, allocator or AllocatorHook()
                ).schedule(ddg, alias_analysis=analysis)
                annotated = [_annotations(inst) for inst in block]
                runs.append((ddg, allocator, result, annotated))
            self._same(block, *runs)

    @staticmethod
    def _same(block, new_run, old_run):
        ddg, allocator, new, annotated = new_run
        ref_ddg, ref_allocator, old, ref_annotated = old_run
        positions = {inst.uid: i for i, inst in enumerate(block)}
        assert ddg.edges == tuple(
            (positions[e.src.uid], positions[e.dst.uid], e.kind.value,
             e.latency, e.speculative_breakable)
            for e in ref_ddg._edges
        )
        assert annotated == ref_annotated

        def shape(linear, cycle_of):
            """The linear order and ``cycle_of`` (in its order), with
            each pseudo-op's uid replaced by its index in ``linear``."""
            label = {
                inst.uid: ("pseudo", i)
                for i, inst in enumerate(linear)
                if inst.uid not in positions
            }
            order = [label.get(inst.uid, inst.uid) for inst in linear]
            ops = [_annotations(inst)[1:] for inst in linear]
            cycles = [(label.get(u, u), c) for u, c in cycle_of.items()]
            return order, ops, cycles

        linear, cycle_of, length, speculated = old
        assert shape(new.linear, new.cycle_of) == shape(linear, cycle_of)
        assert new.length_cycles == length
        assert new.speculated_pairs == speculated
        if allocator is not None:
            assert allocator.stats == ref_allocator.stats
