"""Property-based tests: the two execution paths and the three dgen levels agree.

These are the reproduction's central internal correctness oracles:

* the ALU DSL reference interpreter and the code dgen generates must compute
  identical outputs and state updates for any machine code and any operands;
* a full pipeline simulated from the unoptimised, SCC-propagated and inlined
  descriptions must produce identical output traces and final state — i.e.
  the optimisations of §3.4 never change behaviour;
* the dict-specialised table lookups the fused and generic dRMT drivers
  run (the exact index and the mask-group probes for ternary, LPM and mixed
  tables) must agree with the linear-scan :meth:`MatchActionTable.lookup`
  for any table contents — hits, misses and default-action fallthroughs
  alike — and the three dRMT drivers must agree end to end.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro import atoms, dgen
from repro.alu_dsl import ALUInterpreter
from repro.dsim import RMTSimulator
from repro.hardware import PipelineSpec
from repro.ir import Module, to_source
from repro.machine_code import naming
from repro.machine_code.pairs import MachineCode

ATOM_NAMES = ["raw", "if_else_raw", "pred_raw", "sub", "nested_if", "pair"]

values_strategy = st.integers(min_value=0, max_value=1023)
hole_value_strategy = st.integers(min_value=0, max_value=7)


def compile_alu(spec, stage, kind, slot, opt_level, machine_code):
    """Compile a single ALU function (plus helpers) into a callable."""
    code = dgen.generate_alu(spec, stage, kind, slot, opt_level, machine_code)
    namespace = {}
    source = to_source(Module(functions=code.helpers + [code.function]))
    exec(compile(source, "<alu>", "exec"), namespace)  # noqa: S102
    return namespace[code.function.name]


def full_machine_code(spec, stage, kind, slot, hole_values):
    return {
        naming.alu_hole_name(stage, kind, slot, hole): value
        for hole, value in hole_values.items()
    }


class TestInterpreterVsGeneratedCode:
    @pytest.mark.parametrize("atom_name", ATOM_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stateful_atom_equivalence(self, atom_name, data):
        """Interpreter output/state == generated-code output/state at every opt level."""
        spec = atoms.get_atom(atom_name)
        hole_values = {
            hole: data.draw(hole_value_strategy, label=hole) for hole in spec.holes
        }
        operands = [data.draw(values_strategy, label=f"operand_{i}") for i in range(spec.num_operands)]
        state = [data.draw(values_strategy, label=f"state_{i}") for i in range(spec.num_state_vars)]

        reference = ALUInterpreter(spec).execute(operands, list(state), hole_values)
        machine_code = full_machine_code(spec, 0, naming.STATEFUL, 0, hole_values)

        for opt_level in dgen.OPT_LEVELS:
            function = compile_alu(spec, 0, naming.STATEFUL, 0, opt_level, machine_code)
            generated_state = list(state)
            if opt_level == dgen.OPT_UNOPTIMIZED:
                output = function(*operands, generated_state, machine_code)
            else:
                output = function(*operands, generated_state)
            assert output == reference.output, f"output diverged at opt level {opt_level}"
            assert generated_state == reference.state, f"state diverged at opt level {opt_level}"

    @pytest.mark.parametrize("atom_name", ["stateless_arith", "stateless_rel", "stateless_mux", "stateless_full"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stateless_atom_equivalence(self, atom_name, data):
        spec = atoms.get_atom(atom_name)
        hole_values = {hole: data.draw(hole_value_strategy, label=hole) for hole in spec.holes}
        operands = [data.draw(values_strategy, label=f"operand_{i}") for i in range(spec.num_operands)]

        reference = ALUInterpreter(spec).execute(operands, [], hole_values)
        machine_code = full_machine_code(spec, 1, naming.STATELESS, 0, hole_values)

        for opt_level in dgen.OPT_LEVELS:
            function = compile_alu(spec, 1, naming.STATELESS, 0, opt_level, machine_code)
            if opt_level == dgen.OPT_UNOPTIMIZED:
                output = function(*operands, machine_code)
            else:
                output = function(*operands)
            assert output == reference.output


class TestOptimisationLevelsAgree:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_pipeline_traces_identical_across_levels(self, data):
        """Random machine code, random traffic: the three levels agree end to end."""
        spec = PipelineSpec(
            depth=2,
            width=2,
            stateful_alu=atoms.get_atom("if_else_raw"),
            stateless_alu=atoms.get_atom("stateless_full"),
            name="property_pipeline",
        )
        domains = spec.hole_domains()
        pairs = {}
        for name in spec.expected_machine_code_names():
            domain = domains[name]
            upper = (domain - 1) if domain else 63
            pairs[name] = data.draw(st.integers(min_value=0, max_value=upper), label=name)
        machine_code = MachineCode(pairs)

        inputs = [
            [data.draw(values_strategy) for _ in range(spec.width)] for _ in range(6)
        ]

        results = {}
        for level in dgen.OPT_LEVELS:
            description = dgen.generate(spec, machine_code, opt_level=level)
            results[level] = RMTSimulator(description).run(inputs)

        baseline = results[dgen.OPT_UNOPTIMIZED]
        for level in (dgen.OPT_SCC, dgen.OPT_SCC_INLINE):
            assert results[level].outputs == baseline.outputs
            assert results[level].final_state == baseline.final_state

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=0, max_value=30),
    )
    def test_traffic_generator_reproducible(self, seed, count):
        from repro.dsim import TrafficGenerator

        first = TrafficGenerator(num_containers=3, seed=seed).generate(count)
        second = TrafficGenerator(num_containers=3, seed=seed).generate(count)
        assert first == second
        assert len(first) == count

    @settings(max_examples=30, deadline=None)
    @given(
        stage=st.integers(min_value=0, max_value=31),
        slot=st.integers(min_value=0, max_value=15),
        operand=st.integers(min_value=0, max_value=7),
        container=st.integers(min_value=0, max_value=15),
        kind=st.sampled_from([naming.STATEFUL, naming.STATELESS]),
        hole=st.sampled_from(["mux3_0", "const_7", "rel_op_2", "imm", "opt_11"]),
    )
    def test_machine_code_names_round_trip(self, stage, slot, operand, container, kind, hole):
        for name in (
            naming.alu_hole_name(stage, kind, slot, hole),
            naming.input_mux_name(stage, kind, slot, operand),
            naming.output_mux_name(stage, container),
        ):
            assert naming.parse_name(name).render() == name


@functools.lru_cache(maxsize=1)
def _telemetry_bundle():
    from repro.drmt import DrmtHardwareParams, generate_bundle
    from repro.p4 import samples

    return generate_bundle(samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=3))


class TestExactLookupSpecialisation:
    """The dict-specialised exact lookup vs the linear-scan oracle.

    The fused dRMT generator replaces :meth:`MatchActionTable.lookup` (a
    linear scan) with one dict probe over :meth:`exact_index` for all-exact
    tables; these properties pin the two to identical winners — including
    duplicate keys decided by priority, first-added tie-breaks, misses, and
    (end to end) default-action fallthroughs with identical hit statistics.
    """

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_exact_index_agrees_with_linear_scan(self, data):
        from repro.drmt.tables import MatchActionTable, MatchPattern, TableEntry
        from repro.p4.program import Table, TableRead

        num_fields = data.draw(st.integers(min_value=1, max_value=3), label="fields")
        field_names = [f"pkt.f{index}" for index in range(num_fields)]
        definition = Table(
            name="t",
            reads=[TableRead(field=name, match_kind="exact") for name in field_names],
            actions=["act"],
            size=256,
        )
        table = MatchActionTable(definition, program=None)
        # Values from a tiny domain so duplicate keys (priority contests) and
        # both hits and misses happen often.
        value_strategy = st.integers(min_value=0, max_value=3)
        entries = data.draw(
            st.lists(
                st.tuples(
                    st.tuples(*[value_strategy] * num_fields),
                    st.integers(min_value=0, max_value=3),  # priority
                ),
                max_size=24,
            ),
            label="entries",
        )
        for values, priority in entries:
            table.add_entry(
                TableEntry(
                    patterns={
                        name: MatchPattern(kind="exact", value=value, width=16)
                        for name, value in zip(field_names, values)
                    },
                    action="act",
                    action_args=[priority],
                    priority=priority,
                )
            )
        index = table.exact_index()
        packets = data.draw(
            st.lists(st.tuples(*[value_strategy] * num_fields), max_size=12),
            label="packets",
        )
        for values in packets:
            fields = dict(zip(field_names, values))
            scanned = table.lookup(fields)
            probed = index.get(tuple(values))
            assert probed is scanned, (values, entries)

    def test_exact_index_rejects_mixed_match_kinds(self):
        from repro.drmt.tables import MatchActionTable
        from repro.errors import TableConfigError
        from repro.p4.program import Table, TableRead

        definition = Table(
            name="t",
            reads=[
                TableRead(field="pkt.a", match_kind="exact"),
                TableRead(field="pkt.b", match_kind="ternary"),
            ],
            actions=["act"],
        )
        table = MatchActionTable(definition, program=None)
        assert not table.is_exact
        with pytest.raises(TableConfigError, match="all-exact"):
            table.exact_index()

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_fused_dict_lookup_end_to_end_vs_tick_scan(self, data):
        """Random table contents: fused (dict probe) == tick (linear scan).

        Covers hits (installed flows), misses and the default-action path
        (bucketize misses fall through to ``pick_bucket()`` with zero args),
        including the per-table hit/miss statistics the specialised code
        accumulates locally and folds back on exit.
        """
        from repro.drmt import DRMTSimulator
        from repro.drmt.tables import MatchPattern, TableEntry
        from repro.traffic import PacketGenerator, choice_field

        bundle = _telemetry_bundle()
        installed_flows = data.draw(
            st.lists(st.integers(min_value=0, max_value=7), max_size=6, unique=True),
            label="installed",
        )
        entries = [
            (
                "bucketize",
                TableEntry(
                    patterns={"pkt.flow_id": MatchPattern(kind="exact", value=flow, width=16)},
                    action="pick_bucket",
                    action_args=[data.draw(st.integers(min_value=0, max_value=15), label="bucket")],
                ),
            )
            for flow in installed_flows
        ]
        installed_buckets = data.draw(
            st.lists(st.integers(min_value=0, max_value=15), max_size=8, unique=True),
            label="buckets",
        )
        entries.extend(
            (
                "accounting",
                TableEntry(
                    patterns={"meta.bucket": MatchPattern(kind="exact", value=bucket, width=16)},
                    action="accumulate",
                ),
            )
            for bucket in installed_buckets
        )
        count = data.draw(st.integers(min_value=0, max_value=60), label="count")
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        packets = PacketGenerator(
            bundle.program,
            seed=seed,
            field_overrides={"pkt.flow_id": choice_field(range(10))},
        ).generate(count)

        tick = DRMTSimulator(bundle, table_entries=list(entries), engine="tick").run_packets(packets)
        fused = DRMTSimulator(bundle, table_entries=list(entries), engine="fused").run_packets(packets)
        assert [record.outputs for record in fused.records] == [
            record.outputs for record in tick.records
        ]
        assert fused.table_hits == tick.table_hits
        assert fused.register_dump == tick.register_dump


MATCH_KINDS = ("exact", "ternary", "lpm")


@functools.lru_cache(maxsize=None)
def _one_table_bundle(kinds, width):
    """A program with one table ``t`` reading ``pkt.f<i>`` with ``kinds``."""
    from repro.drmt import DrmtHardwareParams, generate_bundle

    fields = "".join(f"f{index} : {width}; " for index in range(len(kinds)))
    reads = "".join(f"pkt.f{index} : {kind}; " for index, kind in enumerate(kinds))
    source = f"""
header_type pkt_t {{ fields {{ {fields}}} }}
header pkt_t pkt;
action act(x) {{ no_op(); }}
table t {{ reads {{ {reads}}} actions {{ act; }} size : 64; }}
control ingress {{ apply(t); }}
"""
    return generate_bundle(source, DrmtHardwareParams(num_processors=1))


@st.composite
def _match_pattern(draw, kind, width):
    from repro.drmt.tables import MatchPattern

    full = (1 << width) - 1
    # Values from a small domain so keys collide and priorities contest.
    value = draw(st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=full))
    if kind == "exact":
        return MatchPattern(kind="exact", value=value, width=width)
    if kind == "ternary":
        # 0b0011 and 0b0101 have equal popcount: a specificity tie between masks.
        mask = draw(
            st.none()
            | st.sampled_from([0, 0b0011, 0b0101, 0b1100, full])
            | st.integers(min_value=0, max_value=full)
        )
        return MatchPattern(kind="ternary", value=value, mask=mask, width=width)
    # Prefixes past the width act as exact matches; /0 matches everything.
    prefix = draw(st.none() | st.integers(min_value=0, max_value=width + 2))
    return MatchPattern(kind="lpm", value=value, prefix_len=prefix, width=width)


class TestMaskGroupLookup:
    """The mask-group probes vs the linear-scan oracle.

    Ternary, LPM and mixed tables are looked up through
    :meth:`MatchActionTable.mask_groups`: by the generic driver via
    :func:`probe_groups` and by the fused loop via its generated
    ``probe_<table>`` function.  Both must return the very entry
    :meth:`MatchActionTable.lookup` returns -- priorities, first-added
    tie-breaks, overlapping and out-of-range prefixes, equal-popcount masks,
    negative and out-of-width field values (``ipv4.ttl`` underflows) and
    missing fields included.
    """

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_probes_agree_with_linear_scan(self, data):
        from repro.drmt.tables import MatchActionTable, TableEntry, probe_groups

        kinds = tuple(
            data.draw(st.lists(st.sampled_from(MATCH_KINDS), min_size=1, max_size=3), label="kinds")
        )
        width = data.draw(st.sampled_from([4, 8]), label="width")
        bundle = _one_table_bundle(kinds, width)
        field_names = [f"pkt.f{index}" for index in range(len(kinds))]
        table = MatchActionTable(bundle.program.tables["t"], bundle.program)
        entries = data.draw(
            st.lists(
                st.tuples(
                    st.tuples(*[_match_pattern(kind, width) for kind in kinds]),
                    st.integers(min_value=0, max_value=2),  # priority
                ),
                max_size=16,
            ),
            label="entries",
        )
        for position, (patterns, priority) in enumerate(entries):
            table.add_entry(
                TableEntry(
                    patterns=dict(zip(field_names, patterns)),
                    action="act",
                    action_args=[position],
                    priority=priority,
                )
            )
        groups = table.mask_groups()
        bounds = [group[0] for group in groups]
        assert bounds == sorted(bounds, reverse=True)
        if table.is_exact:
            index = table.exact_index()
        else:
            probe = bundle.fused_program().namespace["probe_t"]
        field_value = st.integers(min_value=0, max_value=3) | st.integers(
            min_value=-(1 << width), max_value=1 << (width + 1)
        )
        packets = data.draw(
            st.lists(
                st.dictionaries(st.sampled_from(field_names), field_value),
                max_size=12,
            ),
            label="packets",
        )
        for fields in packets:
            expected = table.lookup(fields)
            values = [fields.get(name, 0) for name in field_names]
            assert probe_groups(groups, values) is expected, fields
            if table.is_exact:
                assert index.get(tuple(values)) is expected, fields
            else:
                assert probe(groups, fields) is expected, fields

    def test_equal_rank_prefers_first_added(self):
        """Same priority and specificity in two groups: the earlier entry wins."""
        from repro.drmt.tables import MatchActionTable, MatchPattern, TableEntry

        bundle = _one_table_bundle(("ternary",), 4)
        table = MatchActionTable(bundle.program.tables["t"], bundle.program)
        for position, mask in enumerate((0b0101, 0b0011)):
            table.add_entry(
                TableEntry(
                    patterns={"pkt.f0": MatchPattern(kind="ternary", value=0, mask=mask, width=4)},
                    action="act",
                    action_args=[position],
                )
            )
        probe = bundle.fused_program().namespace["probe_t"]
        assert probe(table.mask_groups(), {"pkt.f0": 0}) is table.entries[0]
        assert table.lookup({"pkt.f0": 0}) is table.entries[0]
        # 0b0100 only matches the second mask's group.
        assert probe(table.mask_groups(), {"pkt.f0": 0b0100}) is table.entries[1]
        assert table.lookup({"pkt.f0": 0b0100}) is table.entries[1]

    def test_later_group_hit_must_outrank_the_current_best(self):
        """A later group is probed when its bound is higher, but its hit may rank lower."""
        from repro.drmt.tables import MatchActionTable, MatchPattern, TableEntry, probe_groups

        bundle = _one_table_bundle(("ternary",), 4)
        table = MatchActionTable(bundle.program.tables["t"], bundle.program)
        for value, mask, priority in ((1, 0xF, 2), (2, 0xF, 0), (1, 0x3, 1), (2, 0x3, 0)):
            table.add_entry(
                TableEntry(
                    patterns={"pkt.f0": MatchPattern(kind="ternary", value=value, mask=mask, width=4)},
                    action="act",
                    priority=priority,
                )
            )
        # Mask 0xF ranks first (bound: priority 2); mask 0x3 (bound: priority 1)
        # outranks the full-mask hit on 2, yet its own hit on 2 ranks below it.
        probe = bundle.fused_program().namespace["probe_t"]
        assert table.lookup({"pkt.f0": 2}) is table.entries[1]
        assert probe(table.mask_groups(), {"pkt.f0": 2}) is table.entries[1]
        assert probe_groups(table.mask_groups(), [2]) is table.entries[1]


@functools.lru_cache(maxsize=None)
def _router_bundle(num_processors):
    from repro.drmt import DrmtHardwareParams, generate_bundle
    from repro.p4 import samples

    return generate_bundle(samples.simple_router(), DrmtHardwareParams(num_processors=num_processors))


class TestRandomRouterEntries:
    """fused == generic == tick on simple_router with random table contents."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_drivers_agree(self, data):
        from repro.drmt import DRMTSimulator
        from repro.drmt.tables import MatchPattern, TableEntry
        from repro.traffic import PacketGenerator, choice_field

        bundle = _router_bundle(data.draw(st.integers(min_value=1, max_value=4), label="processors"))
        addresses = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=1, max_size=4),
            label="addresses",
        )
        priority = st.integers(min_value=0, max_value=2)
        entries = [
            (
                "forward",
                TableEntry(
                    patterns={
                        "ipv4.dstAddr": MatchPattern(
                            kind="lpm",
                            value=data.draw(st.sampled_from(addresses)),
                            prefix_len=data.draw(st.integers(min_value=0, max_value=32)),
                            width=32,
                        )
                    },
                    action=data.draw(st.sampled_from(["set_nhop", "on_miss"])),
                    action_args=[data.draw(st.integers(min_value=0, max_value=3))],
                    priority=data.draw(priority),
                ),
            )
            for _ in range(data.draw(st.integers(min_value=0, max_value=6), label="routes"))
        ]
        entries.extend(
            (
                "acl",
                TableEntry(
                    patterns={
                        "meta.egress_port": MatchPattern(
                            kind="exact", value=data.draw(st.integers(0, 3)), width=16
                        ),
                        "ipv4.protocol": MatchPattern(
                            kind="ternary",
                            value=data.draw(st.sampled_from([0, 6, 17])),
                            mask=data.draw(st.sampled_from([None, 0, 0x0F, 0xF0, 0xFF])),
                            width=8,
                        ),
                    },
                    action=data.draw(st.sampled_from(["drop_packet", "allow"])),
                    priority=data.draw(priority),
                ),
            )
            for _ in range(data.draw(st.integers(min_value=0, max_value=5), label="rules"))
        )
        entries.extend(
            (
                "flow_stats",
                TableEntry(
                    patterns={"ipv4.srcAddr": MatchPattern(kind="exact", value=source, width=32)},
                    action="count_flow",
                    action_args=[data.draw(st.integers(min_value=0, max_value=70))],
                ),
            )
            for source in data.draw(st.lists(st.integers(0, 3), max_size=3, unique=True), label="flows")
        )
        packets = PacketGenerator(
            bundle.program,
            seed=data.draw(st.integers(min_value=0, max_value=2**16), label="seed"),
            field_overrides={
                "ipv4.dstAddr": choice_field(addresses + [0, (1 << 32) - 1]),
                "ipv4.protocol": choice_field([0, 6, 17, 0x1F]),
                "ipv4.srcAddr": choice_field([0, 1, 2, 3]),
                "ipv4.ttl": choice_field([0, 1, 64]),  # 0 underflows to -1
            },
        ).generate(data.draw(st.integers(min_value=0, max_value=40), label="count"))

        results = {
            engine: DRMTSimulator(bundle, table_entries=list(entries), engine=engine).run_packets(packets)
            for engine in ("tick", "generic", "fused")
        }
        tick = results["tick"]
        for engine in ("generic", "fused"):
            other = results[engine]
            assert other.engine == engine
            assert [record.outputs for record in other.records] == [
                record.outputs for record in tick.records
            ], engine
            assert [record.dropped for record in other.records] == [
                record.dropped for record in tick.records
            ], engine
            assert other.table_hits == tick.table_hits, engine
            assert other.register_dump == tick.register_dump, engine
