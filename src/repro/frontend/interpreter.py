"""Guest interpreter.

Functional execution of a :class:`~repro.frontend.program.GuestProgram`
over a :class:`~repro.sim.memory.Memory`. The interpreter is the system's
slow path (paper Figure 1: code runs interpreted until it gets hot) and
also the reference semantics the optimized translations must match.

Integer semantics: registers hold Python ints, 64-bit wrapping on
arithmetic. FP opcodes operate on register values as Python numbers
(synthetic workloads only need arithmetic of the right latency class, not
IEEE bit-accuracy). Loads/stores move unsigned little-endian integers.

Timing: each interpreted guest instruction is charged
``cycles_per_instruction`` simulated cycles (interpretation overhead of a
DBT system); the value is configurable on the runtime's machine model side.

Dispatch: ``step``, ``run`` and ``run_until`` fetch the guest
:class:`~repro.ir.instruction.Instruction` at the current pc and call the
shared executor for its opcode (one module-level function per opcode,
found through :data:`_EXECUTE`). Nothing is built per pc or per
interpreter: most interpreted code (setup loops, cold paths) runs only a
handful of times, so specializing it per pc cost more than it saved.
``trace_hook``/``mem_hook`` are read from the interpreter on every step,
so profiling hooks can be attached, replaced or removed at any point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Set

from repro.frontend.program import GuestProgram
from repro.ir.instruction import Instruction, Opcode

if TYPE_CHECKING:  # avoid importing the sim package at module load
    from repro.sim.memory import Memory

_MASK64 = (1 << 64) - 1
_MAX64 = (1 << 63) - 1
_MOD64 = 1 << 64


def _wrap(value: int) -> int:
    """Wrap to signed 64-bit."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class InterpreterLimit(Exception):
    """The step budget was exhausted before the program exited."""


@dataclass
class InterpStats:
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches_taken: int = 0


class Interpreter:
    """Executes guest instructions one at a time."""

    def __init__(
        self,
        program: GuestProgram,
        memory: "Memory",
        registers: Optional[List[int]] = None,
        num_registers: int = 64,
    ) -> None:
        self.program = program
        self.memory = memory
        if registers is not None:
            self.registers = registers
        else:
            self.registers = [0] * num_registers
            for reg, value in program.initial_registers.items():
                self.registers[reg] = value
        self.pc = program.entry_pc
        self.stats = InterpStats()
        self.exited = False
        self.exit_code: Optional[int] = None
        #: called with the pc of every instruction executed (profiling)
        self.trace_hook: Optional[Callable[[int], None]] = None
        #: called as (pc, addr, size, is_store) on every memory access
        #: (alias profiling)
        self.mem_hook: Optional[Callable[[int, int, int, bool], None]] = None

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction at the current pc.

        Raises :class:`IndexError` for a pc outside the program, via
        :meth:`GuestProgram.at`.
        """
        pc = self.pc
        inst = self.program.at(pc)
        hook = self.trace_hook
        if hook is not None:
            hook(pc)
        self.stats.instructions += 1
        _EXECUTE[inst.opcode](self, inst, pc)

    def run(self, max_steps: int = 10_000_000) -> int:
        """Run to EXIT; returns the exit code."""
        self.run_until(_NO_STOPS, max_steps)
        return self.exit_code or 0

    def run_until(
        self, stop_pcs: Set[int], max_steps: int = 1_000_000
    ) -> Optional[int]:
        """Interpret until reaching a pc in ``stop_pcs`` (before executing
        it) or program exit. Returns the stop pc, or None on exit.

        Raises :class:`InterpreterLimit` when ``max_steps`` instructions
        ran without reaching either; a stop pc reached by exactly the
        last allowed step is still returned."""
        steps = 0
        insts = self.program.instructions
        n = len(insts)
        stats = self.stats
        execute = _EXECUTE
        while not self.exited:
            pc = self.pc
            if pc in stop_pcs and steps > 0:
                return pc
            if steps >= max_steps:
                raise InterpreterLimit(f"exceeded {max_steps} steps")
            inst = insts[pc] if 0 <= pc < n else self.program.at(pc)
            hook = self.trace_hook
            if hook is not None:
                hook(pc)
            stats.instructions += 1
            execute[inst.opcode](self, inst, pc)
            steps += 1
        return None


# ----------------------------------------------------------------------
# Per-opcode executors, shared by every pc and every interpreter. Each
# runs after the caller has invoked the trace hook and counted the
# instruction, and leaves ``it.pc`` at the successor.
# ----------------------------------------------------------------------
_Executor = Callable[[Interpreter, Instruction, int], None]

#: "no stop pcs": :meth:`Interpreter.run` runs to exit or the step limit
_NO_STOPS: FrozenSet[int] = frozenset()


def _ld(it: Interpreter, inst: Instruction, pc: int) -> None:
    regs = it.registers
    addr = regs[inst.base] + inst.disp
    mem_hook = it.mem_hook
    if mem_hook is not None:
        mem_hook(pc, addr, inst.size, False)
    regs[inst.dest] = it.memory.read(addr, inst.size)
    it.stats.loads += 1
    it.pc = pc + 1


def _st(it: Interpreter, inst: Instruction, pc: int) -> None:
    regs = it.registers
    addr = regs[inst.base] + inst.disp
    mem_hook = it.mem_hook
    if mem_hook is not None:
        mem_hook(pc, addr, inst.size, True)
    it.memory.write(addr, regs[inst.srcs[0]], inst.size)
    it.stats.stores += 1
    it.pc = pc + 1


def _br(it: Interpreter, inst: Instruction, pc: int) -> None:
    it.stats.branches_taken += 1
    it.pc = inst.target


def _cond_branch(test: Callable[[int, int], bool]) -> _Executor:
    """Executor of a two-register conditional branch; a missing second
    source reads as 0."""

    def execute(it: Interpreter, inst: Instruction, pc: int) -> None:
        regs = it.registers
        srcs = inst.srcs
        b = regs[srcs[1]] if len(srcs) > 1 else 0
        if test(regs[srcs[0]], b):
            it.stats.branches_taken += 1
            it.pc = inst.target
        else:
            it.pc = pc + 1

    return execute


def _exit(it: Interpreter, inst: Instruction, pc: int) -> None:
    it.exited = True
    it.exit_code = inst.target


def _unsupported(it: Interpreter, inst: Instruction, pc: int) -> None:
    raise ValueError(f"interpreter cannot execute {inst!r}")


# ALU executors mirror the original dispatch chain's semantics exactly
# (including immediate-form ADD/SUB, CMP's sign result, and the
# FP-as-integer arithmetic classes).
def _movi(it: Interpreter, inst: Instruction, pc: int) -> None:
    it.registers[inst.dest] = inst.imm or 0
    it.pc = pc + 1


def _mov(it: Interpreter, inst: Instruction, pc: int) -> None:
    regs = it.registers
    regs[inst.dest] = regs[inst.srcs[0]]
    it.pc = pc + 1


def _add(it: Interpreter, inst: Instruction, pc: int) -> None:
    regs = it.registers
    srcs = inst.srcs
    imm = inst.imm
    if imm is not None:
        value = regs[srcs[0]] + imm
    else:
        value = regs[srcs[0]] + regs[srcs[1]]
    value &= _MASK64
    regs[inst.dest] = value - _MOD64 if value > _MAX64 else value
    it.pc = pc + 1


def _sub(it: Interpreter, inst: Instruction, pc: int) -> None:
    regs = it.registers
    srcs = inst.srcs
    imm = inst.imm
    if imm is not None:
        value = regs[srcs[0]] - imm
    else:
        value = regs[srcs[0]] - regs[srcs[1]]
    value &= _MASK64
    regs[inst.dest] = value - _MOD64 if value > _MAX64 else value
    it.pc = pc + 1


def _fadd(it: Interpreter, inst: Instruction, pc: int) -> None:
    regs = it.registers
    srcs = inst.srcs
    value = (regs[srcs[0]] + regs[srcs[1]]) & _MASK64
    regs[inst.dest] = value - _MOD64 if value > _MAX64 else value
    it.pc = pc + 1


def _fsub(it: Interpreter, inst: Instruction, pc: int) -> None:
    regs = it.registers
    srcs = inst.srcs
    value = (regs[srcs[0]] - regs[srcs[1]]) & _MASK64
    regs[inst.dest] = value - _MOD64 if value > _MAX64 else value
    it.pc = pc + 1


def _mul(it: Interpreter, inst: Instruction, pc: int) -> None:
    regs = it.registers
    srcs = inst.srcs
    value = (regs[srcs[0]] * regs[srcs[1]]) & _MASK64
    regs[inst.dest] = value - _MOD64 if value > _MAX64 else value
    it.pc = pc + 1


def _binary(fn: Callable[[int, int], int]) -> _Executor:
    """Executor of ``dest = fn(srcs[0], srcs[1])`` (the rarer ALU ops)."""

    def execute(it: Interpreter, inst: Instruction, pc: int) -> None:
        regs = it.registers
        srcs = inst.srcs
        regs[inst.dest] = fn(regs[srcs[0]], regs[srcs[1]])
        it.pc = pc + 1

    return execute


def _fma(it: Interpreter, inst: Instruction, pc: int) -> None:
    regs = it.registers
    srcs = inst.srcs
    dest = inst.dest
    regs[dest] = _wrap(regs[dest] + regs[srcs[0]] * regs[srcs[1]])
    it.pc = pc + 1


def _nop(it: Interpreter, inst: Instruction, pc: int) -> None:
    it.pc = pc + 1


def _fdiv(a: int, b: int) -> int:
    return a // b if b else 0


_EXECUTE: Dict[Opcode, _Executor] = dict.fromkeys(Opcode, _unsupported)
_EXECUTE.update({
    Opcode.LD: _ld,
    Opcode.ST: _st,
    Opcode.BR: _br,
    Opcode.BEQ: _cond_branch(operator.eq),
    Opcode.BNE: _cond_branch(operator.ne),
    Opcode.BLT: _cond_branch(operator.lt),
    Opcode.BGE: _cond_branch(operator.ge),
    Opcode.EXIT: _exit,
    Opcode.MOVI: _movi,
    Opcode.MOV: _mov,
    Opcode.ADD: _add,
    Opcode.SUB: _sub,
    Opcode.MUL: _mul,
    Opcode.AND: _binary(operator.and_),
    Opcode.OR: _binary(operator.or_),
    Opcode.XOR: _binary(operator.xor),
    Opcode.SHL: _binary(lambda a, b: _wrap(a << (b & 63))),
    Opcode.SHR: _binary(lambda a, b: (a & _MASK64) >> (b & 63)),
    Opcode.CMP: _binary(lambda a, b: (a > b) - (a < b)),
    Opcode.FADD: _fadd,
    Opcode.FSUB: _fsub,
    Opcode.FMUL: _mul,
    Opcode.FDIV: _binary(_fdiv),
    Opcode.FMA: _fma,
    Opcode.NOP: _nop,
})
