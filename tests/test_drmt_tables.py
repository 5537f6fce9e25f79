"""Unit tests for dRMT match+action tables and the table-entry configuration format."""

import pytest

from repro.drmt import (
    MatchPattern,
    TableEntry,
    TableStore,
    load_entries,
    parse_entries,
    parse_entry_line,
    populate_store,
)
from repro.errors import TableConfigError
from repro.p4 import samples


@pytest.fixture(scope="module")
def router():
    return samples.simple_router()


class TestMatchPattern:
    def test_exact(self):
        pattern = MatchPattern(kind="exact", value=42, width=16)
        assert pattern.matches(42)
        assert not pattern.matches(43)

    def test_ternary_masked_bits_ignored(self):
        pattern = MatchPattern(kind="ternary", value=0x10, mask=0xF0, width=8)
        assert pattern.matches(0x1F)
        assert not pattern.matches(0x2F)

    def test_ternary_default_mask_is_full(self):
        pattern = MatchPattern(kind="ternary", value=7, width=8)
        assert pattern.matches(7)
        assert not pattern.matches(6)

    def test_lpm_prefix(self):
        # 10.0.0.0/8 equivalent on a 32-bit field.
        pattern = MatchPattern(kind="lpm", value=10 << 24, prefix_len=8, width=32)
        assert pattern.matches((10 << 24) + 12345)
        assert not pattern.matches(11 << 24)

    def test_lpm_zero_prefix_matches_everything(self):
        pattern = MatchPattern(kind="lpm", value=0, prefix_len=0, width=32)
        assert pattern.matches(0) and pattern.matches(2**31)

    def test_specificity_ordering(self):
        narrow = MatchPattern(kind="lpm", value=0, prefix_len=16, width=32)
        wide = MatchPattern(kind="lpm", value=0, prefix_len=8, width=32)
        assert narrow.specificity > wide.specificity

    def test_unknown_kind_rejected_on_match(self):
        with pytest.raises(TableConfigError):
            MatchPattern(kind="range", value=1).matches(1)


class TestTables:
    def test_add_and_lookup(self, router):
        store = TableStore(router)
        entry = TableEntry(
            patterns={"ipv4.srcAddr": MatchPattern(kind="exact", value=42, width=32)},
            action="count_flow",
            action_args=[1],
        )
        store.add_entry("flow_stats", entry)
        hit = store["flow_stats"].lookup({"ipv4.srcAddr": 42})
        assert hit is entry
        assert store["flow_stats"].lookup({"ipv4.srcAddr": 7}) is None
        assert store["flow_stats"].hit_count == 1
        assert store["flow_stats"].miss_count == 1

    def test_longest_prefix_wins(self, router):
        store = TableStore(router)
        for value, prefix, port in ((10 << 24, 8, 1), ((10 << 24) + (1 << 16), 16, 2)):
            store.add_entry(
                "forward",
                TableEntry(
                    patterns={"ipv4.dstAddr": MatchPattern(kind="lpm", value=value, prefix_len=prefix, width=32)},
                    action="set_nhop",
                    action_args=[port],
                ),
            )
        best = store["forward"].lookup({"ipv4.dstAddr": (10 << 24) + (1 << 16) + 5})
        assert best.action_args == [2]

    def test_priority_breaks_ties(self, router):
        store = TableStore(router)
        low = TableEntry(
            patterns={"ipv4.srcAddr": MatchPattern(kind="exact", value=1, width=32)},
            action="count_flow", action_args=[1], priority=0,
        )
        high = TableEntry(
            patterns={"ipv4.srcAddr": MatchPattern(kind="exact", value=1, width=32)},
            action="count_flow", action_args=[2], priority=5,
        )
        store.add_entry("flow_stats", low)
        store.add_entry("flow_stats", high)
        assert store["flow_stats"].lookup({"ipv4.srcAddr": 1}).action_args == [2]

    def test_entry_field_set_validated(self, router):
        store = TableStore(router)
        with pytest.raises(TableConfigError):
            store.add_entry(
                "forward",
                TableEntry(patterns={"ipv4.srcAddr": MatchPattern(kind="exact", value=1, width=32)},
                           action="set_nhop"),
            )

    def test_entry_action_validated(self, router):
        store = TableStore(router)
        with pytest.raises(TableConfigError):
            store.add_entry(
                "forward",
                TableEntry(patterns={"ipv4.dstAddr": MatchPattern(kind="lpm", value=0, prefix_len=0, width=32)},
                           action="drop_packet"),
            )

    def test_table_capacity_enforced(self):
        # Parse a private copy of the program: shrinking the table size must
        # not leak into the module-scoped fixture shared by other tests.
        private = samples.simple_router()
        store = TableStore(private)
        table = store["acl"]
        table.definition.size = 1
        pattern = {
            "meta.egress_port": MatchPattern(kind="exact", value=1, width=16),
            "ipv4.protocol": MatchPattern(kind="ternary", value=0, mask=0, width=8),
        }
        store.add_entry("acl", TableEntry(patterns=dict(pattern), action="allow"))
        with pytest.raises(TableConfigError):
            store.add_entry("acl", TableEntry(patterns=dict(pattern), action="allow"))

    def test_unknown_table_rejected(self, router):
        with pytest.raises(TableConfigError):
            TableStore(router)["ghost"]


class TestEntryConfigFormat:
    def test_parse_exact_entry(self, router):
        table, entry = parse_entry_line("add flow_stats ipv4.srcAddr=42 => count_flow(3)", router)
        assert table == "flow_stats"
        assert entry.action == "count_flow"
        assert entry.action_args == [3]
        assert entry.patterns["ipv4.srcAddr"].kind == "exact"

    def test_parse_ternary_entry(self, router):
        _table, entry = parse_entry_line(
            "add acl meta.egress_port=2 ipv4.protocol=17&&&255 => drop_packet()", router
        )
        assert entry.patterns["ipv4.protocol"].kind == "ternary"
        assert entry.patterns["ipv4.protocol"].mask == 255

    def test_parse_lpm_entry(self, router):
        _table, entry = parse_entry_line(
            "add forward ipv4.dstAddr=167772160/8 => set_nhop(1)", router
        )
        assert entry.patterns["ipv4.dstAddr"].prefix_len == 8

    @pytest.mark.parametrize("prefix", ["33", "40", "-1"])
    def test_lpm_prefix_outside_field_width_rejected(self, router, prefix):
        """``10/40`` on a 32-bit field used to act as an exact match."""
        text = (
            "add forward ipv4.dstAddr=10/0 => set_nhop(1)\n"
            f"add forward ipv4.dstAddr=10/{prefix} => set_nhop(2)\n"
        )
        with pytest.raises(TableConfigError, match=rf"line 2: .*/{prefix}.*\[0, 32\]"):
            parse_entries(text, router)

    def test_lpm_prefix_bounds_accepted(self, router):
        for prefix in (0, 32):
            _table, entry = parse_entry_line(
                f"add forward ipv4.dstAddr=10/{prefix} => set_nhop(1)", router
            )
            assert entry.patterns["ipv4.dstAddr"].prefix_len == prefix

    def test_hex_values_accepted(self, router):
        _table, entry = parse_entry_line(
            "add flow_stats ipv4.srcAddr=0x2a => count_flow(1)", router
        )
        assert entry.patterns["ipv4.srcAddr"].value == 42

    def test_no_args_action(self, router):
        _table, entry = parse_entry_line(
            "add acl meta.egress_port=1 ipv4.protocol=0&&&0 => allow()", router
        )
        assert entry.action_args == []

    def test_unknown_table_rejected(self, router):
        with pytest.raises(TableConfigError):
            parse_entry_line("add ghost ipv4.srcAddr=1 => count_flow(1)", router)

    def test_unknown_field_rejected(self, router):
        with pytest.raises(TableConfigError):
            parse_entry_line("add forward ipv4.ttl=1 => set_nhop(1)", router)

    def test_malformed_line_rejected(self, router):
        with pytest.raises(TableConfigError):
            parse_entry_line("install forward 1 -> set_nhop", router)

    def test_parse_entries_ignores_comments_and_blanks(self, router):
        text = "# comment\n\nadd flow_stats ipv4.srcAddr=1 => count_flow(1)\n// more\n"
        entries = parse_entries(text, router)
        assert len(entries) == 1

    def test_full_sample_config_parses(self, router):
        entries = parse_entries(samples.SIMPLE_ROUTER_ENTRIES, router)
        assert len(entries) == 7
        store = populate_store(TableStore(router), entries)
        assert store.total_entries() == 7

    def test_load_entries_from_file(self, router, tmp_path):
        path = tmp_path / "entries.cfg"
        path.write_text("add flow_stats ipv4.srcAddr=5 => count_flow(2)\n")
        entries = load_entries(path, router)
        assert entries[0][0] == "flow_stats"
