"""Tests for the hardware adapters that bridge regions to alias hardware."""

import pytest

from repro.hw.exceptions import AliasException
from repro.ir.instruction import amov, load, rotate, store
from repro.sim.schemes import (
    EfficeonAdapter,
    HardwareAdapter,
    ItaniumAdapter,
    NullAdapter,
    SmarqAdapter,
    make_scheme,
)


class _FakeRegion:
    allocation = None


class TestSmarqAdapter:
    def make_ops(self):
        ld = load(1, 2)
        ld.mem_index, ld.p_bit, ld.ar_offset = 0, True, 0
        st = store(3, 4)
        st.mem_index, st.c_bit, st.ar_offset = 1, True, 0
        return ld, st

    def test_set_then_check_collision(self):
        adapter = SmarqAdapter(8)
        adapter.on_region_enter(_FakeRegion())
        ld, st = self.make_ops()
        adapter.on_mem_op(ld, 0x100)
        with pytest.raises(AliasException):
            adapter.on_mem_op(st, 0x100)

    def test_disjoint_passes(self):
        adapter = SmarqAdapter(8)
        adapter.on_region_enter(_FakeRegion())
        ld, st = self.make_ops()
        adapter.on_mem_op(ld, 0x100)
        adapter.on_mem_op(st, 0x900)

    def test_rotate_and_amov_forwarded(self):
        adapter = SmarqAdapter(8)
        adapter.on_region_enter(_FakeRegion())
        ld, st = self.make_ops()
        adapter.on_mem_op(ld, 0x100)
        adapter.on_rotate(rotate(1))
        assert adapter.queue.base == 1
        adapter.on_amov(amov(0, 0))

    def test_unannotated_ops_ignored(self):
        adapter = SmarqAdapter(8)
        adapter.on_region_enter(_FakeRegion())
        plain = load(1, 2)
        plain.mem_index = 0
        adapter.on_mem_op(plain, 0x100)  # no P/C: no queue traffic
        assert adapter.queue.stats.sets == 0

    def test_region_exit_clears(self):
        adapter = SmarqAdapter(8)
        adapter.on_region_enter(_FakeRegion())
        ld, st = self.make_ops()
        adapter.on_mem_op(ld, 0x100)
        adapter.on_region_exit()
        adapter.on_region_enter(_FakeRegion())
        adapter.on_mem_op(st, 0x100)  # old entry gone


class TestItaniumAdapter:
    def test_advanced_load_then_store_collision(self):
        adapter = ItaniumAdapter()
        adapter.on_region_enter(_FakeRegion())
        ld = load(1, 2)
        ld.mem_index, ld.p_bit = 0, True
        st = store(3, 4)
        st.mem_index = 1
        adapter.on_mem_op(ld, 0x100)
        with pytest.raises(AliasException) as exc:
            adapter.on_mem_op(st, 0x100)
        # no required-targets info for this store: counted false positive
        assert exc.value.false_positive

    def test_plain_load_not_inserted(self):
        adapter = ItaniumAdapter()
        adapter.on_region_enter(_FakeRegion())
        ld = load(1, 2)
        ld.mem_index = 0  # no P bit
        adapter.on_mem_op(ld, 0x100)
        st = store(3, 4)
        st.mem_index = 1
        adapter.on_mem_op(st, 0x100)  # nothing live: silent


class TestEfficeonAdapter:
    def test_masked_check(self):
        adapter = EfficeonAdapter(15)
        adapter.on_region_enter(_FakeRegion())
        ld = load(1, 2)
        ld.mem_index, ld.p_bit, ld.ar_offset = 0, True, 3
        st = store(3, 4)
        st.mem_index, st.c_bit, st.ar_mask = 1, True, 1 << 3
        adapter.on_mem_op(ld, 0x100)
        with pytest.raises(AliasException):
            adapter.on_mem_op(st, 0x100)

    def test_unmasked_register_skipped(self):
        adapter = EfficeonAdapter(15)
        adapter.on_region_enter(_FakeRegion())
        ld = load(1, 2)
        ld.mem_index, ld.p_bit, ld.ar_offset = 0, True, 3
        st = store(3, 4)
        st.mem_index, st.c_bit, st.ar_mask = 1, True, 1 << 4  # wrong bit
        adapter.on_mem_op(ld, 0x100)
        adapter.on_mem_op(st, 0x100)  # mask misses: silent (by design)


class TestSchemeFactory:
    def test_all_names_construct(self):
        from repro.sim.schemes import SCHEME_NAMES

        for name in SCHEME_NAMES:
            scheme = make_scheme(name)
            adapter = scheme.make_adapter()
            assert isinstance(adapter, HardwareAdapter)

    def test_efficeon_uses_bitmask_allocator(self):
        scheme = make_scheme("efficeon")
        assert scheme.optimizer_config.allocator == "bitmask"
        assert scheme.machine.alias_registers == 15

    def test_null_adapter_inert(self):
        adapter = NullAdapter()
        adapter.on_region_enter(_FakeRegion())
        ld = load(1, 2)
        adapter.on_mem_op(ld, 0x100)
        adapter.on_region_exit()
