"""Unit tests for the guest interpreter."""

import gc
import weakref

import pytest

from repro.frontend.interpreter import Interpreter, InterpreterLimit
from repro.frontend.program import GuestProgram
from repro.ir.instruction import Instruction, Opcode, binop, branch, fbinop, load, mov, movi, store
from repro.sim.memory import Memory


def run(insts, memory_size=4096, max_steps=100000, regions=None):
    program = GuestProgram(
        name="t", instructions=list(insts), region_map=regions or {}
    )
    memory = Memory(memory_size)
    interp = Interpreter(program, memory)
    interp.run(max_steps=max_steps)
    return interp, memory


class TestArithmetic:
    def test_movi_and_add(self):
        interp, _ = run(
            [
                movi(1, 7),
                movi(2, 5),
                binop(Opcode.ADD, 3, 1, 2),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.registers[3] == 12

    def test_add_immediate(self):
        interp, _ = run(
            [
                movi(1, 7),
                Instruction(Opcode.ADD, dest=2, srcs=(1,), imm=10),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.registers[2] == 17

    def test_sub_mul(self):
        interp, _ = run(
            [
                movi(1, 9),
                movi(2, 4),
                binop(Opcode.SUB, 3, 1, 2),
                binop(Opcode.MUL, 4, 1, 2),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.registers[3] == 5
        assert interp.registers[4] == 36

    def test_wraparound_64bit(self):
        interp, _ = run(
            [
                movi(1, (1 << 63) - 1),
                Instruction(Opcode.ADD, dest=2, srcs=(1,), imm=1),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.registers[2] == -(1 << 63)

    def test_logic_and_shift(self):
        interp, _ = run(
            [
                movi(1, 0b1100),
                movi(2, 0b1010),
                binop(Opcode.AND, 3, 1, 2),
                binop(Opcode.OR, 4, 1, 2),
                binop(Opcode.XOR, 5, 1, 2),
                movi(6, 2),
                binop(Opcode.SHL, 7, 1, 6),
                binop(Opcode.SHR, 8, 1, 6),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.registers[3] == 0b1000
        assert interp.registers[4] == 0b1110
        assert interp.registers[5] == 0b0110
        assert interp.registers[7] == 0b110000
        assert interp.registers[8] == 0b11

    def test_cmp(self):
        interp, _ = run(
            [
                movi(1, 3),
                movi(2, 5),
                binop(Opcode.CMP, 3, 1, 2),
                binop(Opcode.CMP, 4, 2, 1),
                binop(Opcode.CMP, 5, 1, 1),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.registers[3] == -1
        assert interp.registers[4] == 1
        assert interp.registers[5] == 0

    def test_fma(self):
        interp, _ = run(
            [
                movi(1, 3),
                movi(2, 4),
                movi(3, 10),
                Instruction(Opcode.FMA, dest=3, srcs=(1, 2)),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.registers[3] == 22

    def test_fdiv_by_zero_yields_zero(self):
        interp, _ = run(
            [
                movi(1, 5),
                movi(2, 0),
                fbinop(Opcode.FDIV, 3, 1, 2),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.registers[3] == 0


class TestMemoryOps:
    def test_store_load_roundtrip(self):
        interp, mem = run(
            [
                movi(1, 0x100),
                movi(2, 0xABCD),
                store(1, 2, disp=8),
                load(3, 1, disp=8),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.registers[3] == 0xABCD
        assert mem.read(0x108, 8) == 0xABCD

    def test_sized_access(self):
        interp, mem = run(
            [
                movi(1, 0x100),
                movi(2, 0x11223344),
                store(1, 2, size=2),
                load(3, 1, size=2),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.registers[3] == 0x3344

    def test_stats_count_loads_stores(self):
        interp, _ = run(
            [
                movi(1, 0x100),
                store(1, 1),
                load(2, 1),
                branch(Opcode.EXIT, 0),
            ]
        )
        assert interp.stats.loads == 1
        assert interp.stats.stores == 1


class TestControlFlow:
    def test_loop_executes_n_times(self):
        insts = [
            movi(1, 0),          # counter
            movi(2, 5),          # limit
            movi(3, 0),          # acc
            Instruction(Opcode.ADD, dest=3, srcs=(3,), imm=2),  # pc 3: head
            Instruction(Opcode.ADD, dest=1, srcs=(1,), imm=1),
            branch(Opcode.BLT, 3, srcs=(1, 2)),
            branch(Opcode.EXIT, 0),
        ]
        interp, _ = run(insts)
        assert interp.registers[3] == 10
        assert interp.stats.branches_taken == 4

    def test_unconditional_branch(self):
        insts = [
            branch(Opcode.BR, 2),
            movi(1, 99),  # skipped
            branch(Opcode.EXIT, 0),
        ]
        interp, _ = run(insts)
        assert interp.registers[1] == 0

    def test_conditional_variants(self):
        for op, a, b, taken in [
            (Opcode.BEQ, 5, 5, True),
            (Opcode.BEQ, 5, 6, False),
            (Opcode.BNE, 5, 6, True),
            (Opcode.BLT, 4, 5, True),
            (Opcode.BGE, 5, 5, True),
            (Opcode.BGE, 4, 5, False),
        ]:
            insts = [
                movi(1, a),
                movi(2, b),
                branch(op, 4, srcs=(1, 2)),
                movi(3, 111),  # executed only when not taken
                branch(Opcode.EXIT, 0),
            ]
            interp, _ = run(insts)
            assert (interp.registers[3] == 0) == taken, op

    def test_exit_code(self):
        program = GuestProgram(name="t", instructions=[branch(Opcode.EXIT, 7)])
        interp = Interpreter(program, Memory(64))
        assert interp.run() == 7

    def test_step_limit(self):
        insts = [branch(Opcode.BR, 0)]
        program = GuestProgram(name="t", instructions=insts)
        interp = Interpreter(program, Memory(64))
        with pytest.raises(InterpreterLimit):
            interp.run(max_steps=100)

    def test_run_until_stops_at_pc(self):
        insts = [
            movi(1, 0),
            Instruction(Opcode.ADD, dest=1, srcs=(1,), imm=1),  # pc 1
            branch(Opcode.BLT, 1, srcs=(1, 2)),
            branch(Opcode.EXIT, 0),
        ]
        program = GuestProgram(name="t", instructions=insts)
        interp = Interpreter(program, Memory(64))
        interp.registers[2] = 100
        stop = interp.run_until({1}, max_steps=10)
        assert stop == 1

    def test_trace_hook_sees_every_pc(self):
        seen = []
        insts = [movi(1, 0), movi(2, 0), branch(Opcode.EXIT, 0)]
        program = GuestProgram(name="t", instructions=insts)
        interp = Interpreter(program, Memory(64))
        interp.trace_hook = seen.append
        interp.run()
        assert seen == [0, 1, 2]

    def test_initial_registers_applied(self):
        program = GuestProgram(
            name="t",
            instructions=[branch(Opcode.EXIT, 0)],
            initial_registers={5: 42},
        )
        interp = Interpreter(program, Memory(64))
        assert interp.registers[5] == 42


class TestHandlerTable:
    """Every pc runs through the shared opcode-indexed handler table
    (``_EXECUTE``): hooks are read on every step, and nothing per pc is
    built or kept."""

    # one instruction of every executor kind: ALU, LD, ST, conditional
    # branch (not taken), BR and EXIT
    INSTS = [
        movi(1, 0x100),
        load(2, 1, disp=8),
        store(1, 2, disp=16),
        branch(Opcode.BNE, 5, srcs=(1, 1)),
        branch(Opcode.BR, 5),
        branch(Opcode.EXIT, 0),
    ]
    PCS = [0, 1, 2, 3, 4, 5]
    MEM = [(1, 0x108, 8, False), (2, 0x110, 8, True)]

    def _rerun(self, interp):
        """Run the program again on the same interpreter."""
        interp.pc = interp.program.entry_pc
        interp.exited = False
        interp.run()

    def test_hook_changes_between_runs_take_effect(self):
        program = GuestProgram(name="t", instructions=list(self.INSTS))
        interp = Interpreter(program, Memory(4096))
        interp.run()  # a first run with no hooks attached

        first_pcs, first_mem = [], []
        interp.trace_hook = first_pcs.append
        interp.mem_hook = lambda *access: first_mem.append(access)
        self._rerun(interp)
        assert first_pcs == self.PCS
        assert first_mem == self.MEM

        second_pcs, second_mem = [], []
        interp.trace_hook = second_pcs.append
        interp.mem_hook = lambda *access: second_mem.append(access)
        self._rerun(interp)
        assert second_pcs == self.PCS
        assert second_mem == self.MEM
        assert first_pcs == self.PCS  # the replaced hooks saw nothing more

        interp.trace_hook = None
        interp.mem_hook = None
        self._rerun(interp)
        assert second_pcs == self.PCS
        assert second_mem == self.MEM

    @pytest.mark.parametrize("entry", ["run", "run_until", "step"])
    def test_hooks_set_replaced_and_cleared_mid_run(self, entry):
        """A hook that rewires the hooks takes effect from the very next
        instruction, on every dispatch entry point."""
        program = GuestProgram(name="t", instructions=list(self.INSTS))
        interp = Interpreter(program, Memory(4096))
        early, late, mem = [], [], []

        def first_hook(pc):
            early.append(pc)
            if pc == 0:  # attach the memory hook before the load runs
                interp.mem_hook = lambda *access: mem.append(access)
            if pc == 1:  # replace the trace hook after the load
                interp.trace_hook = second_hook

        def second_hook(pc):
            late.append(pc)
            if pc == 3:  # clear both before the branches run
                interp.trace_hook = None
                interp.mem_hook = None

        interp.trace_hook = first_hook
        if entry == "run":
            interp.run()
        elif entry == "run_until":
            assert interp.run_until(set()) is None
        else:
            while not interp.exited:
                interp.step()
        assert early == [0, 1]
        assert late == [2, 3]
        assert mem == self.MEM
        assert interp.exited and interp.stats.instructions == len(self.INSTS)

    def test_running_builds_no_objects(self):
        """Dispatch creates nothing the collector tracks — no per-pc
        handler, closure or table — however many pcs run."""
        body = [movi(1, 0x100), load(2, 1, disp=8), store(1, 2, disp=16)]
        program = GuestProgram(
            name="t", instructions=body * 100 + [branch(Opcode.EXIT, 0)]
        )
        interp = Interpreter(program, Memory(4096))
        gc.collect()
        gc.disable()  # nothing may be freed or untracked meanwhile
        try:
            before = len(gc.get_objects())
            interp.run()
            assert len(gc.get_objects()) == before
        finally:
            gc.enable()

    def test_interpreter_is_freed_without_the_cyclic_collector(self):
        program = GuestProgram(name="t", instructions=list(self.INSTS))
        interp = Interpreter(program, Memory(4096))
        interp.trace_hook = lambda pc: None
        interp.run()
        ref = weakref.ref(interp)
        gc.disable()  # an automatic collection must not mask a cycle
        try:
            del interp
            assert ref() is None
        finally:
            gc.enable()
