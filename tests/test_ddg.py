"""Unit tests for the data dependence graph."""

import pytest

from repro.analysis.aliasinfo import AliasAnalysis
from repro.analysis.dependence import Dependence, compute_dependences
from repro.ir.instruction import Opcode, binop, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.sched.ddg import (
    ANTI,
    CONTROL,
    FLOW,
    MEMORY,
    OUTPUT,
    DataDependenceGraph,
)
from repro.sched.machine import VLIW_DEFAULT


def build_ddg(insts, **kwargs):
    block = Superblock(instructions=list(insts))
    analysis = AliasAnalysis(block)
    deps = compute_dependences(block, analysis)
    return block, DataDependenceGraph(
        block, VLIW_DEFAULT, memory_dependences=deps, **kwargs
    )


def out_edges(ddg, src):
    """``(dst, kind, latency, breakable)`` of every edge leaving
    position ``src``, in insertion order."""
    return [e[1:] for e in ddg.edges if e[0] == src]


def in_edges(ddg, dst):
    """``(src, kind, latency, breakable)`` of every edge entering
    position ``dst``, in insertion order."""
    return [(e[0],) + e[2:] for e in ddg.edges if e[1] == dst]


def edges_of_kind(ddg, src, kind):
    return [e for e in out_edges(ddg, src) if e[1] == kind]


class TestRegisterEdges:
    def test_flow_edge_with_producer_latency(self):
        block, ddg = build_ddg([load(1, 2), binop(Opcode.ADD, 3, 1, 1)])
        ((dst, _kind, latency, _breakable),) = edges_of_kind(ddg, 0, FLOW)
        assert dst == 1
        assert latency == 3  # load latency

    def test_anti_edge_use_before_redef(self):
        block, ddg = build_ddg([binop(Opcode.ADD, 3, 1, 2), movi(1, 0)])
        ((dst, _kind, latency, _breakable),) = edges_of_kind(ddg, 0, ANTI)
        assert dst == 1
        assert latency == 0

    def test_output_edge_between_defs(self):
        block, ddg = build_ddg([movi(1, 0), movi(1, 1)])
        ((dst, _kind, _latency, _breakable),) = edges_of_kind(ddg, 0, OUTPUT)
        assert dst == 1

    def test_no_self_edges(self):
        block, ddg = build_ddg([binop(Opcode.ADD, 1, 1, 1)])
        assert ddg.edges == ()


class TestControlEdges:
    def test_store_pinned_below_earlier_branch(self):
        insts = [branch(Opcode.BEQ, 9, srcs=(1, 2)), store(3, 4)]
        block, ddg = build_ddg(insts)
        assert edges_of_kind(ddg, 0, CONTROL)

    def test_load_free_to_hoist_above_branch(self):
        insts = [branch(Opcode.BEQ, 9, srcs=(1, 2)), load(3, 4)]
        block, ddg = build_ddg(insts)
        control = [e for e in in_edges(ddg, 1) if e[1] == CONTROL]
        assert control == []

    def test_final_branch_pins_everything(self):
        insts = [movi(1, 0), load(2, 3), branch(Opcode.BR, 0)]
        block, ddg = build_ddg(insts)
        for pos in range(len(block.instructions) - 1):
            kinds = [e[1] for e in out_edges(ddg, pos)]
            assert CONTROL in kinds

    def test_branches_stay_ordered(self):
        insts = [
            branch(Opcode.BEQ, 9, srcs=(1, 2)),
            branch(Opcode.BNE, 8, srcs=(3, 4)),
        ]
        block, ddg = build_ddg(insts)
        (edge,) = [
            e for e in out_edges(ddg, 0) if e[1] == CONTROL and e[0] == 1
        ]
        assert edge == (1, CONTROL, 0, False)


class TestMemoryEdges:
    def test_may_alias_edge_breakable(self):
        block, ddg = build_ddg([store(5, 1), load(2, 6)])
        ((_dst, _kind, _latency, breakable),) = edges_of_kind(ddg, 0, MEMORY)
        assert breakable

    def test_must_alias_edge_unbreakable(self):
        block, ddg = build_ddg(
            [store(5, 1, disp=0, size=8), load(2, 5, disp=0, size=8)]
        )
        ((_dst, _kind, _latency, breakable),) = edges_of_kind(ddg, 0, MEMORY)
        assert not breakable

    def test_store_reorder_disabled(self):
        block, ddg = build_ddg(
            [store(5, 1), store(6, 2)], allow_store_reorder=False
        )
        ((_dst, _kind, _latency, breakable),) = edges_of_kind(ddg, 0, MEMORY)
        assert not breakable

    def test_loads_only_policy(self):
        # store->load breakable, load->store not, store->store not
        block, ddg = build_ddg(
            [store(5, 1), load(2, 6), store(7, 3)],
            speculation_policy="loads_only",
        )
        assert block[0] is block.memory_ops()[0]
        memory = edges_of_kind(ddg, 0, MEMORY)
        assert memory
        for dst, _kind, _latency, breakable in memory:
            assert breakable == block[dst].is_load

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build_ddg([load(1, 2)], speculation_policy="bogus")

    def test_extended_deps_not_scheduling_edges(self):
        block = Superblock(instructions=[load(1, 5), store(6, 2)])
        analysis = AliasAnalysis(block)
        x, s = block.memory_ops()
        ext = Dependence(s, x, extended=True)
        ddg = DataDependenceGraph(block, VLIW_DEFAULT, memory_dependences=[ext])
        assert edges_of_kind(ddg, 1, MEMORY) == []


class TestGraphQueries:
    def test_edge_count(self):
        block, ddg = build_ddg([load(1, 2), binop(Opcode.ADD, 3, 1, 1)])
        assert len(ddg.edges) == 1

    def test_duplicate_register_use_keeps_one_edge(self):
        block, ddg = build_ddg([movi(1, 0), binop(Opcode.ADD, 3, 1, 1)])
        assert ddg.edges == ((0, 1, FLOW, 1, False),)

    def test_edges_point_forward(self):
        insts = [
            load(1, 2), store(5, 1), binop(Opcode.ADD, 3, 1, 1),
            load(4, 6), movi(1, 0), branch(Opcode.BR, 0),
        ]
        block, ddg = build_ddg(insts)
        assert ddg.edges
        assert all(src < dst for src, dst, *_ in ddg.edges)
