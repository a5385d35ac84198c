"""The replay kernel compiled from the numeric replay IR.

A hot trace's functional replay runs on one of two paths (selected by
per-trace promotion or ``SMARQ_REPLAY_BACKEND``, see
:mod:`repro.sim.vliw`):

``interp``
    the simulator's generic dispatch loop over the compiled trace — the
    oracle, not compiled here;
``kernel``
    :func:`compile_vec` — one generated function per trace. The alias
    hardware is **simulated statically at compile time** over the IR's
    event stream (every queue/ALAT/bit-mask operand is trace-static), so
    an execution reduces to register locals, guarded address computation
    and the irreducible runtime residue: pairwise address-overlap tests
    (pruned when two addresses provably share a base register) plus
    constant hardware-stat deltas and a precomputed event fingerprint at
    each exit. The body sits inside an iteration loop whose back edge is
    the trace's structural loop exit
    (:func:`repro.sim.replay_ir.loop_candidate`): a self-looping region
    runs up to ``n`` consecutive iterations in one call, any other
    region calls it with ``n=1``. Repetition is a wrapper around the
    same body, not a second compiler. Anything the static model cannot
    decide — a bounds violation, a possible alias overlap — *escapes*
    (:data:`ESCAPE`): the caller rolls back the escaping iteration and
    re-runs it once on ``interp``, which is exact by construction. The
    kernel never touches adapter state.

The module also owns the process-wide **replay artifact cache**: lowered
IR and the compiled kernel are keyed by the region's translation key
(content + config + hints), the adapter class, and the adapter's
:meth:`~repro.sim.schemes.HardwareAdapter.replay_config_key`, so the
translation cache's content-identical region clones (one per repeat of a
perf cell, for instance) never re-generate identical replay code.
Timing plans are deliberately *not* shared — they memoize per-region
signature state and stay on the region object.
"""

from __future__ import annotations

import importlib.util
import struct
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from repro.sim import replay_ir as R

_MASK64 = (1 << 64) - 1
_HIGH = 1 << 63

_U64 = struct.Struct("<Q")

#: exit kind in a kernel result: the current iteration escaped the
#: static model; the caller rolls back the iteration's undo slice and
#: re-runs it on the interp dispatch loop
ESCAPE = -2


def batch_flavor() -> str:
    """``"numpy"`` when numpy is importable, else ``"pure"``.

    The kernel uses neither. The string survives as a comparability
    setting that ``perfbench/run.py`` records with every run (its
    ``compare.py`` refuses to compare records whose settings differ).
    ``find_spec`` answers without importing numpy.
    """
    if importlib.util.find_spec("numpy") is not None:
        return "numpy"
    return "pure"


class _StaticHw:
    """Compile-time simulation of one adapter family's alias hardware.

    Every operand of the queue / ALAT / bit-mask models except the
    access *addresses* is trace-static, so entry liveness, scan lengths,
    rotation, eviction and the full stat stream can be resolved at
    compile time. The one runtime residue is pairwise address overlap;
    :meth:`check` returns the (address-local, size) pairs each check must
    test, and the kernel escapes when any test fires (the interp loop
    then reproduces the exact exception, ordering and partial stats).
    """

    __slots__ = ("family", "stats", "entries", "orders", "base", "limit",
                 "max_live")

    def __init__(self, family: str, limit: int) -> None:
        self.family = family
        self.limit = limit
        self.stats = {}
        self.entries = {}  # key -> (addr_local, size, is_load)
        self.orders: List[int] = []  # sorted keys (queue orders/ALAT keys)
        self.base = 0
        self.max_live = 0

    def _bump(self, name: str, n: int = 1) -> None:
        self.stats[name] = self.stats.get(name, 0) + n

    # -- queue ---------------------------------------------------------
    def q_set(self, off: int, addr: str, size: int, il: int) -> bool:
        if off < 0 or off >= self.limit or size <= 0:
            return False
        order = self.base + off
        if order not in self.entries:
            self.orders.append(order)
            self.orders.sort()
        self.entries[order] = (addr, size, il)
        self._bump("sets")
        if len(self.entries) > self.max_live:
            self.max_live = len(self.entries)
        return True

    def q_check(self, off: int, size: int, il: int):
        if off < 0 or off >= self.limit or size <= 0:
            return None
        own = self.base + off
        pairs = []
        for order in self.orders:
            if order < own:
                continue
            e_addr, e_size, e_il = self.entries[order]
            if il and e_il:
                continue
            pairs.append((e_addr, e_size))
        self._bump("comparisons", len(pairs))
        self._bump("checks")
        return pairs

    def q_rotate(self, amount: int) -> bool:
        if amount < 0:
            return False
        new_base = self.base + amount
        self.orders = [o for o in self.orders if o >= new_base]
        self.entries = {
            o: e for o, e in self.entries.items() if o >= new_base
        }
        self.base = new_base
        self._bump("rotations")
        self._bump("rotated_registers", amount)
        return True

    def q_amov(self, src: int, dst: int) -> bool:
        if not (0 <= src < self.limit and 0 <= dst < self.limit):
            return False
        src_order = self.base + src
        entry = self.entries.pop(src_order, None)
        if entry is not None:
            self.orders.remove(src_order)
            if src != dst:
                dst_order = self.base + dst
                if dst_order not in self.entries:
                    self.orders.append(dst_order)
                    self.orders.sort()
                self.entries[dst_order] = entry
        self._bump("amovs")
        return True

    # -- ALAT ----------------------------------------------------------
    def alat_insert(self, mem_index: int, addr: str, size: int,
                    il: int) -> bool:
        if size <= 0:
            return False
        if len(self.entries) >= self.limit:
            oldest = self.orders.pop(0)
            del self.entries[oldest]
        if mem_index not in self.entries:
            self.orders.append(mem_index)
            self.orders.sort()
        self.entries[mem_index] = (addr, size, il)
        self._bump("inserts")
        return True

    def alat_store_check(self, size: int):
        if size <= 0:
            return None
        pairs = [
            (self.entries[key][0], self.entries[key][1])
            for key in self.orders
        ]
        self._bump("store_checks")
        self._bump("comparisons", len(pairs))
        return pairs

    # -- bit-mask file -------------------------------------------------
    def bm_set(self, index: int, addr: str, size: int, il: int) -> bool:
        if not 0 <= index < self.limit or size <= 0:
            return False
        self.entries[index] = (addr, size, il)
        self._bump("sets")
        return True

    def bm_check(self, mask: int, size: int):
        if size <= 0 or mask < 0 or mask >= (1 << self.limit):
            return None
        pairs = []
        for index in range(self.limit):
            if mask & (1 << index) and index in self.entries:
                e_addr, e_size, _e_il = self.entries[index]
                pairs.append((e_addr, e_size))
        self._bump("checks")
        self._bump("comparisons", len(pairs))
        return pairs


#: stat attribute emission order per hardware family (matches the
#: dataclass fields the models expose; ``max_live`` is handled apart)
_STAT_TARGETS = {
    "queue": ("ad.queue.stats",
              ("sets", "checks", "comparisons", "rotations",
               "rotated_registers", "amovs")),
    "alat": ("ad.alat.stats", ("inserts", "store_checks", "comparisons")),
    "bitmask": ("ad.file.stats", ("sets", "checks", "comparisons")),
}


def _hw_family(ir: R.ReplayIR):
    kinds = set()
    for grp in ir.events:
        for ev in grp:
            kinds.add(ev[0])
    if R.E_DYN in kinds:
        return "dyn"
    if kinds & R.QUEUE_EVENTS:
        return "queue"
    if kinds & R.ALAT_EVENTS:
        return "alat"
    if kinds & R.BITMASK_EVENTS:
        return "bitmask"
    return None


#: ALU kinds whose result is emitted via the signed 64-bit wrap
_WRAP_KINDS = frozenset(
    (R.A_ADDI, R.A_ADD, R.A_SUB, R.A_MUL, R.A_SHL, R.A_FMA)
)


def _defer_wraps(ir: R.ReplayIR):
    """Op indices whose ALU wrap may be deferred to the consumer.

    The signed wrap is congruence-preserving (mod 2**64), so a wrapped
    def whose every use is *wrap-transparent* — an operand of another
    wrapped op, a shift amount or shifted value (only the low bits
    matter), or a memory address/store value (masked at the access) —
    can stay as the raw Python int and let each consumer normalize.
    Opaque uses (signed compares, bitwise ops on the raw mixed-sign
    representation, floor division, plain moves) force the wrap at the
    def so the interp tier's exact value representation is reproduced.
    Commit-time register writeback of a deferred value wraps at the exit
    site instead (executed once per region, not once per def).
    """
    live = {}  # reg -> candidate wrap-def op index
    wraps = set()
    bad = set()

    def u(reg, transparent=True):
        if reg is None or transparent:
            return
        k0 = live.get(reg)
        if k0 is not None:
            bad.add(k0)

    for k, op in enumerate(ir.ops):
        t = op[0]
        if t == R.OP_ALU:
            _, kind, d, a, b, _imm = op
            if kind == R.A_MOV:
                u(a, False)
            elif kind == R.A_ADDI:
                u(a)
            elif kind in (R.A_ADD, R.A_SUB, R.A_MUL, R.A_SHL, R.A_SHR):
                u(a)
                u(b)
            elif kind == R.A_FMA:
                u(d)
                u(a)
                u(b)
            elif kind != R.A_MOVI:  # AND/OR/XOR/CMP/FDIV/dyn: raw values
                u(a, False)
                u(b, False)
            if kind in _WRAP_KINDS:
                live[d] = k
                wraps.add(k)
            else:
                live.pop(d, None)
        elif t == R.OP_LD:
            u(op[2])  # base: masked at the access
            live.pop(op[1], None)  # loaded value is canonical unsigned
        elif t == R.OP_ST:
            u(op[1])  # store value: masked at the access
            u(op[2])
        elif t == R.OP_CBR:
            u(op[2], False)  # signed compare sees the exact value
            if op[3] is not None:
                u(op[3], False)
    return wraps - bad



#: pair count at/above which a sweep hides behind the bloom prefilter
_BLOOM_SWEEP_MIN = 4


def _scan(ir: R.ReplayIR, family, limit: int):
    """One pass over the live ops: those up to the first unconditional
    terminator (``OP_BR``/``OP_EXIT``; later ops are dead code).

    Returns ``(hw, written, refs, rbw, sweep)``:

    * ``hw`` — the static hardware simulation after one clean pass (its
      stats are one full iteration's deltas), or None without hardware;
    * ``written`` — the registers the pass defines, in first-write order;
    * ``refs`` — every register the body reads or writes;
    * ``rbw`` — the registers read before their first write, whose value
      at iteration start matters;
    * ``sweep`` — the longest alias pair sweep any check emits, or 0 when
      a tracked access is wider than 8 bytes (the bloom prefilter's
      two-bucket probes cannot cover it).
    """
    hw = _StaticHw(family, limit) if family else None
    written: List[int] = []
    written_set = set()
    refs = set()
    rbw = set()
    widest = sweep = 0

    def rd(reg) -> None:
        refs.add(reg)
        if reg not in written_set:
            rbw.add(reg)

    def wr(reg) -> None:
        refs.add(reg)
        if reg not in written_set:
            written_set.add(reg)
            written.append(reg)

    for k, op in enumerate(ir.ops):
        t = op[0]
        evt = None
        if t == R.OP_ALU:
            kind, d, a, b = op[1], op[2], op[3], op[4]
            if kind == R.A_FMA:
                rd(d)
            if kind != R.A_MOVI:
                rd(a)
                if b is not None:
                    rd(b)
            wr(d)
        elif t == R.OP_LD:
            rd(op[2])
            wr(op[1])
            evt = op[5]
        elif t == R.OP_ST:
            rd(op[1])
            rd(op[2])
            evt = op[5]
        elif t == R.OP_CBR:
            rd(op[2])
            if op[3] is not None:
                rd(op[3])
        elif t == R.OP_EVT:
            evt = op[1]
        elif t == R.OP_BR or t == R.OP_EXIT:
            break
        if evt is None or hw is None:
            continue
        for ev in ir.events[evt]:
            e = ev[0]
            pairs = None
            if e == R.E_QCHK:
                pairs = hw.q_check(ev[1], ev[2], ev[3])
                widest = max(widest, ev[2])
            elif e == R.E_QSET:
                hw.q_set(ev[1], f"a{k}", ev[2], ev[3])
                widest = max(widest, ev[2])
            elif e == R.E_ROT:
                hw.q_rotate(ev[1])
            elif e == R.E_AMOV:
                hw.q_amov(ev[1], ev[2])
            elif e == R.E_ACHK:
                pairs = hw.alat_store_check(ev[1])
                widest = max(widest, ev[1])
            elif e == R.E_AINS:
                hw.alat_insert(ev[1], f"a{k}", ev[2], ev[3])
                widest = max(widest, ev[2])
            elif e == R.E_BCHK:
                pairs = hw.bm_check(ev[1], ev[2])
                widest = max(widest, ev[2])
            elif e == R.E_BSET:
                hw.bm_set(ev[1], f"a{k}", ev[2], ev[3])
                widest = max(widest, ev[2])
            if pairs:
                sweep = max(sweep, len(pairs))
    return hw, written, refs, rbw, (0 if widest > 8 else sweep)


class _ResidueEmitter:
    """Emits one trace's kernel body.

    Owns the emission state — symbolic address identity, CSE value
    numbers, deferred wraps, bounds/sweep guards and the static hardware
    simulation — and walks the live IR emitting residue statements into
    ``lines``. Every register local is bound above the iteration loop
    (see :func:`compile_vec`), so the body only reads and assigns
    locals; ``regs`` is written once, at the exit that leaves the call.
    A runtime fact outside the static model ``break``s out of the
    iteration loop into the escape epilogue.

    ``loop`` is the structural back-edge site ``(exit_idx, exit_kind)``
    or None; ``carried`` the guest registers one iteration writes (the
    loop-carried state a side exit or escape restores from ``prev``);
    ``temps`` the scratch registers read before written, re-zeroed at
    the back edge like the per-execution scratch file; ``per_iter`` the
    static simulation after one full iteration, whose stats the exits
    apply ``it`` times for the committed iterations.
    """

    __slots__ = (
        "ir", "adapter", "guest_count", "family", "hw", "bloom", "emit",
        "pad", "defer_ok", "written", "written_set", "version", "syms",
        "rsym", "asizes", "deferred_now", "cse", "exit_fps", "loop",
        "carried", "temps", "per_iter",
    )

    def __init__(self, ir: R.ReplayIR, adapter, guest_count: int, family,
                 limit: int, bloom: bool, lines: List[str], pad: str,
                 loop, carried, temps, per_iter) -> None:
        self.ir = ir
        self.adapter = adapter
        self.guest_count = guest_count
        self.family = family
        self.hw = _StaticHw(family, limit) if family else None
        self.bloom = bloom
        self.emit = lines.append
        self.pad = pad
        self.defer_ok = _defer_wraps(ir)
        self.written: List[int] = []  # registers written, in first-write order
        self.written_set = set()
        self.version: dict = {}  # register -> def count (symbolic addr identity)
        self.syms: dict = {}  # address local -> (base reg, base version, disp)
        self.rsym: dict = {}  # (base reg, base version, disp) -> address local
        self.asizes = set()  # (address local, size) pairs already guarded
        self.deferred_now = set()  # regs whose local holds a raw (unwrapped) value
        self.cse: dict = {}  # value-number key -> (reg, version at def, raw?)
        self.exit_fps: dict = {}
        self.loop = loop
        self.carried = carried
        self.temps = temps
        self.per_iter = per_iter

    # -- register locals -----------------------------------------------
    def define(self, reg: int) -> str:
        if reg not in self.written_set:
            self.written_set.add(reg)
            self.written.append(reg)
        self.deferred_now.discard(reg)
        self.version[reg] = self.version.get(reg, 0) + 1
        return f"r{reg}"

    def emit_wrap(self, dest: int, expr: str) -> None:
        # branchless signed wrap: ((v + 2**63) mod 2**64) - 2**63
        name = self.define(dest)
        self.emit(
            f"{self.pad}{name} = (({expr}) + {_HIGH} & {_MASK64}) - {_HIGH}"
        )

    def alu_op(self, k: int, kind: int, d: int, a, b, imm) -> None:
        """One ALU op: value-numbered (a repeat of a still-valid pure
        expression becomes a local copy) and wrap-deferred where
        :func:`_defer_wraps` proved every use normalizes anyway."""
        emit = self.emit
        pad = self.pad
        version = self.version
        cse = self.cse
        want_defer = k in self.defer_ok
        key = None
        if kind not in (R.A_MOVI, R.A_MOV, R.A_FMA):
            key = (kind, a, version.get(a, 0), b,
                   version.get(b, 0) if b is not None else None, imm)
            hit = cse.get(key)
            if hit is not None:
                s_reg, s_ver, s_raw = hit
                if version.get(s_reg, 0) == s_ver:
                    sname = f"r{s_reg}"
                    name = self.define(d)
                    if s_raw and not want_defer:
                        emit(f"{pad}{name} = ({sname} + {_HIGH} "
                             f"& {_MASK64}) - {_HIGH}")
                        s_raw = False
                    elif name != sname:
                        emit(f"{pad}{name} = {sname}")
                    if s_raw:
                        self.deferred_now.add(d)
                    cse[key] = (d, version[d], s_raw)
                    return
        if kind == R.A_MOVI:
            emit(f"{pad}{self.define(d)} = {imm}")
        elif kind == R.A_MOV:
            emit(f"{pad}{self.define(d)} = r{a}")
        else:
            wrapped = kind in _WRAP_KINDS
            if kind == R.A_ADDI:
                expr = f"r{a} + {imm}"
            elif kind == R.A_ADD:
                expr = f"r{a} + r{b}"
            elif kind == R.A_SUB:
                expr = f"r{a} - r{b}"
            elif kind == R.A_MUL:
                expr = f"r{a} * r{b}"
            elif kind == R.A_AND:
                expr = f"r{a} & r{b}"
            elif kind == R.A_OR:
                expr = f"r{a} | r{b}"
            elif kind == R.A_XOR:
                expr = f"r{a} ^ r{b}"
            elif kind == R.A_SHL:
                expr = f"r{a} << (r{b} & 63)"
            elif kind == R.A_SHR:
                expr = f"(r{a} & {_MASK64}) >> (r{b} & 63)"
            elif kind == R.A_CMP:
                expr = f"(r{a} > r{b}) - (r{a} < r{b})"
            elif kind == R.A_FDIV:
                expr = f"r{a} // r{b} if r{b} else 0"
            else:  # A_FMA
                expr = f"r{d} + r{a} * r{b}"
            if wrapped and want_defer:
                name = self.define(d)
                emit(f"{pad}{name} = {expr}")
                self.deferred_now.add(d)
            elif wrapped:
                self.emit_wrap(d, expr)
            else:
                emit(f"{pad}{self.define(d)} = {expr}")
        if key is not None:
            cse[key] = (d, version[d], d in self.deferred_now)

    # -- addresses and guards ------------------------------------------
    def emit_addr(self, k: int, base: int, disp: int, size: int) -> str:
        """Bounds-guarded access address for op ``k``.

        Pre-masking folds the negative-address case into the upper-bound
        compare (a negative or wrapped address masks to a huge value):
        one comparison per access instead of two. The ``mlim{size}``
        limits are hoisted above the iteration loop.
        """
        keyt = (base, self.version.get(base, 0), disp)
        addr = self.rsym.get(keyt)
        if addr is None:
            addr = f"a{k}"
            self.syms[addr] = keyt
            self.rsym[keyt] = addr
            if disp:
                self.emit(f"{self.pad}{addr} = r{base} + {disp} & {_MASK64}")
            else:
                self.emit(f"{self.pad}{addr} = r{base} & {_MASK64}")
        if (addr, size) not in self.asizes:
            self.asizes.add((addr, size))
            self.emit(f"{self.pad}if {addr} > mlim{size}: break")
        return addr

    def bloom_add(self, addr: str, size: int) -> None:
        if not self.bloom:
            return
        lo = f"1 << ({addr} >> 3 & 255)"
        if size > 1:
            self.emit(
                f"{self.pad}_bm |= {lo} | "
                f"1 << ({addr} + {size - 1} >> 3 & 255)"
            )
        else:
            self.emit(f"{self.pad}_bm |= {lo}")

    def emit_sweep(self, addr: str, size: int, pairs) -> bool:
        """Alias pair tests for one check; any runtime overlap escapes.
        Pairs whose addresses share a base register resolve statically:
        disjoint displacements drop the test, an unavoidable overlap
        rejects the trace (returns False)."""
        syms = self.syms
        own = syms.get(addr)
        tests = []
        for p_addr, p_size in pairs:
            p_sym = syms.get(p_addr)
            if (
                own is not None
                and p_sym is not None
                and own[0] == p_sym[0]
                and own[1] == p_sym[1]
            ):
                d_own, d_p = own[2], p_sym[2]
                if d_own < d_p + p_size and d_p < d_own + size:
                    return False  # certain overlap: every run would escape
                continue  # certain disjoint: no runtime test needed
            tests.append(
                f"({p_addr} < {addr} + {size} and {addr} < {p_addr} + {p_size})"
            )
        if not tests:
            return True
        chain = " or ".join(tests)
        emit = self.emit
        pad = self.pad
        if self.bloom and len(tests) >= _BLOOM_SWEEP_MIN:
            probe = f"_bm >> ({addr} >> 3 & 255) & 1"
            if size > 1:
                probe += f" or _bm >> ({addr} + {size - 1} >> 3 & 255) & 1"
            emit(f"{pad}if {probe}:")
            emit(f"{pad}    if {chain}: break")
        else:
            emit(f"{pad}if {chain}: break")
        return True

    def emit_events(self, evt: Optional[int], addr: str) -> bool:
        """Statically apply one op's events; False aborts the lowering."""
        if evt is None:
            return True
        hw = self.hw
        for ev in self.ir.events[evt]:
            e = ev[0]
            if e == R.E_QCHK:
                _, off, size, il, _mi = ev
                pairs = hw.q_check(off, size, il)
                if pairs is None or not self.emit_sweep(addr, size, pairs):
                    return False
            elif e == R.E_QSET:
                _, off, size, il, _mi = ev
                if not hw.q_set(off, addr, size, il):
                    return False
                self.bloom_add(addr, size)
            elif e == R.E_ROT:
                if not hw.q_rotate(ev[1]):
                    return False
            elif e == R.E_AMOV:
                if not hw.q_amov(ev[1], ev[2]):
                    return False
            elif e == R.E_ACHK:
                _, size, _il, _mi = ev
                pairs = hw.alat_store_check(size)
                if pairs is None or not self.emit_sweep(addr, size, pairs):
                    return False
            elif e == R.E_AINS:
                _, mi, size, il = ev
                if not hw.alat_insert(mi, addr, size, il):
                    return False
                self.bloom_add(addr, size)
            elif e == R.E_BCHK:
                _, mask, size, il, _mi = ev
                pairs = hw.bm_check(mask, size)
                if pairs is None or not self.emit_sweep(addr, size, pairs):
                    return False
            elif e == R.E_BSET:
                _, idx, size, il, _mi = ev
                if not hw.bm_set(idx, addr, size, il):
                    return False
                self.bloom_add(addr, size)
            else:  # E_DYN: unreachable (ir.dyn rejected by the compiler)
                return False
        return True

    # -- exit-site building blocks -------------------------------------
    def fp_now(self):
        """Fingerprint of a clean execution reaching this point, in each
        adapter family's ``event_fingerprint()`` component order
        (exception components are 0 by construction: the kernel escapes
        instead of raising)."""
        hw = self.hw
        if hw is None:
            # no hardware events anywhere in the trace: replicate the
            # adapter's zero-delta fingerprint shape
            shape = self.adapter.event_fingerprint()
            return (0,) * len(shape) if isinstance(shape, tuple) else 0
        s = hw.stats
        family = self.family
        if family == "queue":
            return (s.get("sets", 0), s.get("checks", 0),
                    s.get("rotations", 0), s.get("rotated_registers", 0),
                    s.get("amovs", 0), 0)
        if family == "alat":
            return (s.get("inserts", 0), s.get("store_checks", 0), 0, 0)
        return (s.get("sets", 0), s.get("checks", 0), 0)

    def stat_lines(self, indent: str, hw=None, times: str = "") -> List[str]:
        """Constant hardware-stat deltas of a clean execution reaching
        the current exit site — or, given ``hw`` and ``times``, of
        ``times`` full iterations."""
        if hw is None:
            hw = self.hw
        out: List[str] = []
        if hw is not None and hw.stats:
            target, fields = _STAT_TARGETS[self.family]
            out.append(f"{indent}_hs = {target}")
            for name in fields:
                n = hw.stats.get(name, 0)
                if n:
                    out.append(f"{indent}_hs.{name} += {n}{times}")
            if self.family == "queue" and hw.max_live:
                out.append(
                    f"{indent}if _hs.max_live < {hw.max_live}: "
                    f"_hs.max_live = {hw.max_live}"
                )
        return out

    def writeback_lines(self, indent: str) -> List[str]:
        """Guest-register writeback for a commit-kind exit site."""
        out: List[str] = []
        for reg in self.written:
            if reg < self.guest_count:
                if reg in self.deferred_now:
                    out.append(
                        f"{indent}regs[{reg}] = (r{reg} + {_HIGH} "
                        f"& {_MASK64}) - {_HIGH}"
                    )
                else:
                    out.append(f"{indent}regs[{reg}] = r{reg}")
        return out

    def restore_lines(self, indent: str) -> List[str]:
        """Leaving mid-iteration (side exit or escape): apply the ``it``
        committed iterations' stat deltas and write back their state.
        The current iteration's register effects are discarded."""
        if self.loop is None:
            return []  # never loops: ``it`` is always 0 here
        inner = indent + "    "
        body = self.stat_lines(inner, self.per_iter, " * it")
        body += [f"{inner}regs[{reg}] = prev[{ix}]"
                 for ix, reg in enumerate(self.carried)]
        return [f"{indent}if it:"] + body if body else []

    # -- body walk ------------------------------------------------------
    def walk(self) -> bool:
        """Emit the body up to its first unconditional terminator (later
        ops are dead). Returns False when the trace cannot be statically
        lowered."""
        ir = self.ir
        emit = self.emit
        pad = self.pad
        if self.bloom:
            emit(f"{pad}_bm = 0")
        for k, op in enumerate(ir.ops):
            t = op[0]
            if t == R.OP_ALU:
                if op[1] == R.A_DYN:  # unreachable (ir.dyn rejected)
                    return False
                self.alu_op(k, op[1], op[2], op[3], op[4], op[5])
            elif t == R.OP_LD or t == R.OP_ST:
                _, vreg, base, disp, size, evt = op
                addr = self.emit_addr(k, base, disp, size)
                if not self.emit_events(evt, addr):
                    return False
                if t == R.OP_LD:
                    name = self.define(vreg)
                    if size == 8:
                        emit(f"{pad}{name} = u64(data, {addr})[0]")
                    else:
                        emit(
                            f"{pad}{name} = "
                            f"ifb(data[{addr}:{addr} + {size}], 'little')"
                        )
                else:
                    mask = (1 << (8 * size)) - 1
                    emit(
                        f"{pad}undo_append(({addr}, "
                        f"data[{addr}:{addr} + {size}]))"
                    )
                    if size == 8:
                        emit(f"{pad}p64(data, {addr}, r{vreg} & {mask})")
                    else:
                        emit(
                            f"{pad}data[{addr}:{addr} + {size}] = "
                            f"(r{vreg} & {mask}).to_bytes({size}, 'little')"
                        )
            elif t == R.OP_CBR:
                _, code, a, b, pay = op
                cmp_op = ("==", "!=", "<", ">=")[code]
                rhs = f"r{b}" if b is not None else "0"
                emit(f"{pad}if r{a} {cmp_op} {rhs}:")
                self._exit(k, R.X_SIDE, ir.payloads[pay], pad + "    ")
            elif t == R.OP_BR:
                self._exit(k, R.X_BR, ir.payloads[op[1]], pad)
                return True
            elif t == R.OP_EXIT:
                self._exit(k, R.X_EXIT, ir.payloads[op[1]], pad)
                return True
            elif t == R.OP_EVT:
                if not self.emit_events(op[1], "0"):
                    return False
            # OP_NOP: no functional effect
        self._exit(len(ir.ops) - 1, R.X_FALL, None, pad)
        return True

    def _exit(self, k: int, xkind: int, payload, indent: str) -> None:
        """The one exit hook. A side exit leaves with the committed
        iterations; the back edge continues while ``it < n``; any other
        exit (a program exit — the only live commit of a trace without a
        back edge) commits this first iteration."""
        self.exit_fps[(k, xkind)] = self.fp_now()
        emit = self.emit
        if xkind == R.X_SIDE:
            for line in self.stat_lines(indent) + self.restore_lines(indent):
                emit(line)
            emit(f"{indent}return (it, mark, {k}, {xkind}, {payload!r})")
            return
        if (k, xkind) != self.loop:
            for line in self.stat_lines(indent) + self.writeback_lines(indent):
                emit(line)
            emit(f"{indent}return (0, mark, {k}, {xkind}, {payload!r})")
            return
        # the back edge: normalize deferred guest locals (the next
        # iteration's reads assume canonical values), re-zero the scratch
        # registers it reads before writing, snapshot the committed state
        # for a later side exit or escape, and loop
        inner = indent + "    "
        emit(f"{indent}it += 1")
        emit(f"{indent}if it < n:")
        for reg in self.written:
            if reg in self.deferred_now and reg < self.guest_count:
                emit(f"{inner}r{reg} = (r{reg} + {_HIGH} "
                     f"& {_MASK64}) - {_HIGH}")
        for reg in self.temps:
            emit(f"{inner}r{reg} = 0")
        if self.carried:
            emit(f"{inner}prev = ({', '.join(f'r{r}' for r in self.carried)},)")
        emit(f"{inner}continue")
        # the call's last iteration: apply all ``it`` iterations' stats
        for line in self.writeback_lines(indent):
            emit(line)
        for line in self.stat_lines(indent, self.per_iter, " * it"):
            emit(line)
        emit(f"{indent}return (it - 1, mark, {k}, {xkind}, {payload!r})")


def _family_limit(adapter, family) -> int:
    if family == "queue":
        return adapter.queue.num_registers
    if family == "alat":
        return adapter.alat.num_entries
    if family == "bitmask":
        return adapter.file.num_registers
    return 0


def compile_vec(ir: R.ReplayIR, adapter, guest_count: int):
    """Compile the replay kernel for one lowered trace.

    Returns ``None`` when the trace cannot be statically lowered: a
    dynamic escape (unknown adapter/opcode), a hardware operand the
    static model rejects (the interp loop then reproduces the model's
    runtime error exactly), or a pair of accesses that provably always
    overlap (the trace would escape on every execution anyway).
    Otherwise returns ``(fn, exit_fps)``. ``exit_fps`` maps each
    ``(exit_idx, exit_kind)`` to the adapter event fingerprint of a
    clean execution reaching that exit, so the caller skips the
    adapter's region-enter/exit bookkeeping entirely.

    The kernel's signature is ``(regs, data, msize, ad, undo_log, n)``
    and it returns ``(iters, mark, exit_idx, exit_kind, payload)``:
    ``iters`` back-edge iterations committed in full before the final
    one (registers written back, memory kept, hardware-stat deltas
    applied), ``mark`` the undo-log length at the final iteration's
    start, and the final iteration's exit — with ``exit_kind ==``
    :data:`ESCAPE` when it escaped and the caller must roll back
    ``undo_log[mark:]`` and re-run it. ``regs`` is the *guest* register
    file itself: scratch registers live in locals and guest registers
    are written only at the exit that leaves the call. Every committed
    iteration is indistinguishable from one execution exiting at the
    back-edge site, so ``n`` iterations in one call report exactly what
    ``n`` calls with ``n=1`` would.
    """
    if ir.dyn:
        return None
    family = _hw_family(ir)
    if family == "dyn":
        return None
    limit = _family_limit(adapter, family)
    per_iter, written, refs, rbw, sweep = _scan(ir, family, limit)
    # Bloom prefilter over 8-byte granules: when any sweep is long, every
    # tracked set also ORs its two bucket bits into ``_bm`` and long
    # sweeps probe their buckets first — disjoint accesses (the common
    # case) skip the whole pairwise or-chain. Sound because an overlap
    # implies a shared byte, whose granule is among the two buckets of
    # both accesses (all tracked accesses are <= 8 bytes wide here).
    bloom = family is not None and sweep >= _BLOOM_SWEEP_MIN
    env: dict = {"ifb": int.from_bytes, "u64": _U64.unpack_from,
                 "p64": _U64.pack_into, "len": len}
    # default args bind the helpers as locals (LOAD_FAST, not
    # LOAD_GLOBAL, on every use); callers pass only the first six
    lines: List[str] = [
        "def _kernel(regs, data, msize, ad, undo_log, n, "
        "u64=u64, p64=p64, ifb=ifb, len=len):",
        "    undo_append = undo_log.append",
    ]
    sizes = sorted({op[4] for op in ir.ops if op[0] in (R.OP_LD, R.OP_ST)})
    lines += [f"    mlim{size} = msize - {size}" for size in sizes]
    # loop-carried register locals, bound once above the iteration loop
    lines += [
        f"    r{reg} = regs[{reg}]" if reg < guest_count else f"    r{reg} = 0"
        for reg in sorted(refs)
    ]
    lines += ["    it = 0", "    while 1:", "        mark = len(undo_log)"]
    em = _ResidueEmitter(
        ir, adapter, guest_count, family, limit, bloom, lines, "        ",
        loop=R.loop_candidate(ir),
        carried=[reg for reg in written if reg < guest_count],
        temps=sorted(reg for reg in rbw if reg >= guest_count),
        per_iter=per_iter,
    )
    if not em.walk():
        return None
    # escape epilogue: a guard broke out mid-iteration
    lines += em.restore_lines("    ")
    lines.append(f"    return (it, mark, {ESCAPE}, {ESCAPE}, None)")
    exec(compile("\n".join(lines), "<vliw-replay-kernel>", "exec"), env)
    # pop, not get: the kernel's ``__globals__`` is ``env``, so leaving it
    # there would make a cycle that only the cyclic collector can free
    return env.pop("_kernel"), em.exit_fps


# perfbench/spans.py wraps these two retired compiler names by attribute
# and refuses to run without them. The simulator calls compile_vec only;
# the two go when the benchmark's TARGETS list is next revised.
def compile_py(ir: R.ReplayIR, adapter, guest_count: int):
    return compile_vec(ir, adapter, guest_count)


def compile_batch(ir: R.ReplayIR, adapter, guest_count: int):
    return compile_vec(ir, adapter, guest_count)


def loop_exit_for(ir: R.ReplayIR, entry_pc: int, fall_through):
    """The back-edge exit site of a self-looping region, or None.

    The kernel bakes the *structural* candidate exit
    (:func:`repro.sim.replay_ir.loop_candidate`) — a pure function of
    the trace content, so content-identical region clones share one
    compiled kernel. Whether that exit actually re-enters **this**
    region is a per-region fact decided here: the branch payload (or the
    fall-through pc) must equal the region's own entry pc.
    """
    cand = R.loop_candidate(ir)
    if cand is None:
        return None
    k, xkind = cand
    if xkind == R.X_BR:
        if ir.payloads[ir.ops[k][1]] == entry_pc:
            return cand
        return None
    # X_FALL: the trace has no branch or exit at all; it self-loops only
    # when the fall-through continuation is the region's entry
    if fall_through == entry_pc:
        return cand
    return None


# ----------------------------------------------------------------------
# process-wide replay artifact cache
# ----------------------------------------------------------------------
class ReplayArtifact:
    """Shareable replay code for one (trace content, hardware) identity.

    Holds everything that is a pure function of the lowered trace: the
    numeric IR, the compiled kernel and its per-exit fingerprints
    (``fps``). Timing plans (signature memos, execution counts) are
    per-region and never live here. ``unavailable`` marks a trace that
    gets no kernel: the static lowering rejects it, or it was demoted
    after :data:`ESCAPE_LIMIT` costly escapes. ``guest_count`` is the
    register-file size the kernel's writeback was compiled for.
    """

    __slots__ = ("ir", "fn", "fps", "unavailable", "escapes",
                 "guest_count")

    def __init__(self) -> None:
        self.ir: Optional[R.ReplayIR] = None
        self.fn: Optional[Callable] = None
        self.fps: Optional[dict] = None
        self.unavailable = False
        self.escapes = 0
        self.guest_count = 0


#: the one demotion rule: a trace whose kernel calls escape before
#: committing half their requested iterations this many times runs on
#: interp for good (with ``n=1`` every escape counts)
ESCAPE_LIMIT = 4

_CACHE_LIMIT = 256
_artifacts: "OrderedDict[Tuple, ReplayArtifact]" = OrderedDict()


def artifact_for(key: Tuple) -> ReplayArtifact:
    """The shared artifact for ``key``, creating (and LRU-evicting) as
    needed. ``key`` must fold in everything replay code depends on:
    the region's translation key (content, optimizer config, machine,
    alias hints/bans), the adapter class, and the adapter instance's
    ``replay_config_key()``."""
    art = _artifacts.get(key)
    if art is not None:
        _artifacts.move_to_end(key)
        return art
    art = ReplayArtifact()
    _artifacts[key] = art
    if len(_artifacts) > _CACHE_LIMIT:
        _artifacts.popitem(last=False)
    return art


def reset_artifact_cache() -> None:
    """Clear the cache (tests)."""
    _artifacts.clear()
