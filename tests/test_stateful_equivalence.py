"""Bit-for-bit agreement of every driver on stateful programs.

The engine layer promises that the tick, generic and fused drivers produce
exactly the same outputs, state and timing for one compiled program.  The
cross-architecture test in ``test_engine.py`` pins that down at opt level 3;
this module covers what it leaves out:

* the RMT facade's ``auto`` selection on every Table-1 program, at opt
  level 3 (fused) and below it (generic), compared tick for tick;
* the parametric variant families under random traffic;
* dRMT programs whose registers are indexed per flow, with index wrap,
  read-only configuration registers, several processor counts and a
  simulator reused across runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import dgen
from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
from repro.dsim import RMTSimulator
from repro.errors import SimulationError
from repro.p4 import samples
from repro.programs import TABLE1_ORDER, get_program
from repro.programs.variants import (
    make_accumulator_variant,
    make_blue_decrease_variant,
    make_sampling_variant,
    make_threshold_variant,
)
from repro.traffic import PacketGenerator, choice_field

LOWER_LEVELS = (dgen.OPT_UNOPTIMIZED, dgen.OPT_SCC, dgen.OPT_SCC_INLINE)
DRMT_ENGINES = ("tick", "generic", "fused")


def compiled(program, opt_level=dgen.OPT_FUSED):
    return dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=opt_level)


def run_rmt(program, description, inputs, engine):
    return RMTSimulator(
        description, initial_state=program.initial_pipeline_state(), engine=engine
    ).run(inputs)


def assert_bit_for_bit(result, reference, label=""):
    assert result.outputs == reference.outputs, label
    assert result.final_state == reference.final_state, label
    assert result.input_trace == reference.input_trace, label
    assert result.ticks == reference.ticks, label
    assert [record.phv_id for record in result.output_trace] == [
        record.phv_id for record in reference.output_trace
    ], label


# ----------------------------------------------------------------------
# RMT: the auto selection on the Table-1 programs
# ----------------------------------------------------------------------
class TestTable1AutoSelection:
    @pytest.mark.parametrize("program_name", TABLE1_ORDER)
    def test_auto_runs_fused_bit_for_bit(self, program_name):
        """At opt level 3 ``auto`` picks fused and matches generic and tick."""
        program = get_program(program_name)
        description = compiled(program)
        inputs = program.traffic_generator(seed=13).generate(150)
        reference = run_rmt(program, description, inputs, "generic")
        tick = run_rmt(program, description, inputs, "tick")
        auto = run_rmt(program, description, inputs, "auto")
        assert_bit_for_bit(tick, reference, "tick")
        assert_bit_for_bit(auto, reference, "auto")
        assert auto.engine == "fused"

    @pytest.mark.parametrize("opt_level", LOWER_LEVELS)
    @pytest.mark.parametrize("program_name", TABLE1_ORDER)
    def test_auto_runs_generic_below_level3(self, program_name, opt_level):
        """Without a fused entry point ``auto`` picks generic, which matches tick."""
        program = get_program(program_name)
        description = compiled(program, opt_level=opt_level)
        inputs = program.traffic_generator(seed=2).generate(80)
        tick = run_rmt(program, description, inputs, "tick")
        auto = run_rmt(program, description, inputs, "auto")
        assert_bit_for_bit(auto, tick, f"level {opt_level}")
        assert auto.engine == "generic"
        with pytest.raises(SimulationError, match="fused"):
            run_rmt(program, description, inputs, "fused")


# ----------------------------------------------------------------------
# RMT: the parametric variant families under random traffic
# ----------------------------------------------------------------------
VARIANT_FAMILIES = {
    "sampling": (make_sampling_variant, st.integers(min_value=2, max_value=40)),
    "accumulator": (make_accumulator_variant, st.integers(min_value=0, max_value=200)),
    "threshold": (make_threshold_variant, st.integers(min_value=0, max_value=2000)),
    "blue_decrease": (make_blue_decrease_variant, st.integers(min_value=1, max_value=100)),
}


class TestVariantFamilies:
    @pytest.mark.parametrize("family", sorted(VARIANT_FAMILIES))
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_random_members_and_traces_agree(self, family, data):
        """Random constants, seeds and trace lengths: tick == generic == fused."""
        factory, parameter = VARIANT_FAMILIES[family]
        program = factory(data.draw(parameter, label="parameter"))
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        count = data.draw(st.integers(min_value=0, max_value=120), label="count")
        description = compiled(program)
        inputs = program.traffic_generator(seed=seed).generate(count)
        reference = run_rmt(program, description, inputs, "generic")
        for engine in ("tick", "fused"):
            assert_bit_for_bit(run_rmt(program, description, inputs, engine), reference, engine)


# ----------------------------------------------------------------------
# dRMT: register programs indexed per flow
# ----------------------------------------------------------------------
#: One 8-cell register indexed by ``pkt.flow``: flows past 7 wrap onto
#: the cells of lower flows (3 and 11 share cell 3).
COUNTER_SOURCE = """
header_type pkt_t {
    fields {
        flow : 16;
        other : 16;
        total : 16;
    }
}

header pkt_t pkt;

register per_flow {
    width : 32;
    instance_count : 8;
}

action bump() {
    register_read(pkt.total, per_flow, pkt.flow);
    add_to_field(pkt.total, 1);
    register_write(per_flow, pkt.flow, pkt.total);
}

table counters {
    reads {
        pkt.flow : exact;
    }
    actions { bump; }
    default_action : bump;
}

control ingress {
    apply(counters);
}
"""

#: The counter program plus a second register indexed by a different field.
TWO_REGISTER_SOURCE = COUNTER_SOURCE.replace(
    "register per_flow {\n    width : 32;\n    instance_count : 8;\n}",
    "register per_flow {\n    width : 32;\n    instance_count : 8;\n}\n\n"
    "register by_other {\n    width : 32;\n    instance_count : 8;\n}",
).replace(
    "    register_write(per_flow, pkt.flow, pkt.total);\n}",
    "    register_write(per_flow, pkt.flow, pkt.total);\n"
    "    register_write(by_other, pkt.other, pkt.total);\n}",
)

#: A per-flow counter plus a configuration register that is only read.
READ_ONLY_CONFIG_SOURCE = """
header_type pkt_t {
    fields {
        flow : 16;
        limit : 16;
        total : 16;
    }
}

header pkt_t pkt;

register per_flow {
    width : 32;
    instance_count : 8;
}

register config {
    width : 32;
    instance_count : 4;
}

action bump() {
    register_read(pkt.limit, config, 2);
    register_read(pkt.total, per_flow, pkt.flow);
    add_to_field(pkt.total, 1);
    register_write(per_flow, pkt.flow, pkt.total);
}

table counters {
    reads {
        pkt.flow : exact;
    }
    actions { bump; }
    default_action : bump;
}

control ingress {
    apply(counters);
}
"""

#: A program whose only register is read-only.
PURE_READER_SOURCE = """
header_type pkt_t {
    fields {
        flow : 16;
        limit : 16;
    }
}

header pkt_t pkt;

register config {
    width : 32;
    instance_count : 4;
}

action tag() {
    register_read(pkt.limit, config, 1);
}

table taggers {
    reads {
        pkt.flow : exact;
    }
    actions { tag; }
    default_action : tag;
}

control ingress {
    apply(taggers);
}
"""

REGISTER_PROGRAMS = {
    "counter": COUNTER_SOURCE,
    "two_register": TWO_REGISTER_SOURCE,
    "read_only_config": READ_ONLY_CONFIG_SOURCE,
    "pure_reader": PURE_READER_SOURCE,
}


def register_packets(bundle, count=120):
    """Deterministic packets whose flow values run past the 8-cell registers."""
    fields = bundle.program.all_fields()
    packets = []
    for index in range(count):
        packet = {name: 0 for name in fields}
        packet["pkt.flow"] = (index * 7) % 20
        if "pkt.other" in packet:
            packet["pkt.other"] = (index * 3) % 11
        packets.append(packet)
    return packets


def assert_drmt_equal(result, reference, per_processor=True):
    """Compare two dRMT results; ``per_processor=False`` skips the per-run counts."""
    assert [record.outputs for record in result.records] == [
        record.outputs for record in reference.records
    ]
    assert [record.dropped for record in result.records] == [
        record.dropped for record in reference.records
    ]
    assert [
        (record.packet_id, record.processor, record.arrival_tick, record.completed_tick)
        for record in result.records
    ] == [
        (record.packet_id, record.processor, record.arrival_tick, record.completed_tick)
        for record in reference.records
    ]
    assert result.register_dump == reference.register_dump
    assert result.table_hits == reference.table_hits
    assert result.ticks == reference.ticks
    if per_processor:
        assert result.per_processor_packets == reference.per_processor_packets


def telemetry(num_processors=4):
    bundle = generate_bundle(
        samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=num_processors)
    )
    return bundle, samples.TELEMETRY_ENTRIES


class TestDrmtRegisterPrograms:
    @pytest.mark.parametrize("num_processors", (1, 2, 3, 4))
    @pytest.mark.parametrize("program_name", sorted(REGISTER_PROGRAMS))
    def test_every_driver_agrees(self, program_name, num_processors):
        bundle = generate_bundle(
            REGISTER_PROGRAMS[program_name], DrmtHardwareParams(num_processors=num_processors)
        )
        packets = register_packets(bundle)
        reference = DRMTSimulator(bundle, engine="tick").run_packets(packets)
        for engine in ("generic", "fused", "auto"):
            result = DRMTSimulator(bundle, engine=engine).run_packets(packets)
            assert_drmt_equal(result, reference)
        assert result.engine == "fused"

    @pytest.mark.parametrize("engine", DRMT_ENGINES)
    def test_counter_cells_count_wrapped_flows(self, engine):
        """Cell i counts every packet whose flow is i modulo the 8 cells."""
        bundle = generate_bundle(COUNTER_SOURCE, DrmtHardwareParams(num_processors=3))
        packets = register_packets(bundle)
        result = DRMTSimulator(bundle, engine=engine).run_packets(packets)
        expected = [0] * 8
        seen = [0] * 8
        for packet, record in zip(packets, result.records):
            cell = packet["pkt.flow"] % 8
            expected[cell] += 1
            seen[cell] += 1
            assert record.outputs["pkt.total"] == seen[cell]
        assert result.register_dump["per_flow"] == expected

    @pytest.mark.parametrize("engine", DRMT_ENGINES)
    def test_second_register_follows_its_own_index(self, engine):
        bundle = generate_bundle(TWO_REGISTER_SOURCE, DrmtHardwareParams(num_processors=2))
        packets = register_packets(bundle)
        result = DRMTSimulator(bundle, engine=engine).run_packets(packets)
        expected = [0] * 8
        for packet, record in zip(packets, result.records):
            expected[packet["pkt.other"] % 8] = record.outputs["pkt.total"]
        assert result.register_dump["by_other"] == expected

    @pytest.mark.parametrize("engine", DRMT_ENGINES)
    def test_read_only_config_register_is_read_and_never_written(self, engine):
        bundle = generate_bundle(READ_ONLY_CONFIG_SOURCE, DrmtHardwareParams(num_processors=3))
        simulator = DRMTSimulator(bundle, engine=engine)
        simulator.registers.write("config", 2, 77)
        result = simulator.run_packets(register_packets(bundle))
        assert {record.outputs["pkt.limit"] for record in result.records} == {77}
        assert result.register_dump["config"] == [0, 0, 77, 0]

    @pytest.mark.parametrize("engine", DRMT_ENGINES)
    def test_pure_reader_tags_every_packet(self, engine):
        bundle = generate_bundle(PURE_READER_SOURCE, DrmtHardwareParams())
        simulator = DRMTSimulator(bundle, engine=engine)
        simulator.registers.write("config", 1, 9)
        packets = [{"pkt.flow": index % 9, "pkt.limit": 0} for index in range(60)]
        result = simulator.run_packets(packets)
        assert [record.outputs for record in result.records] == [
            {"pkt.flow": index % 9, "pkt.limit": 9} for index in range(60)
        ]
        assert result.register_dump["config"] == [0, 9, 0, 0]

    @pytest.mark.parametrize("engine", ("generic", "fused"))
    def test_reused_simulator_accumulates_like_tick(self, engine):
        """Two runs on one simulator keep counting, exactly like the tick model."""
        bundle = generate_bundle(COUNTER_SOURCE, DrmtHardwareParams(num_processors=3))
        packets = register_packets(bundle, count=50)
        tick = DRMTSimulator(bundle, engine="tick")
        other = DRMTSimulator(bundle, engine=engine)
        first = other.run_packets(packets)
        assert_drmt_equal(first, tick.run_packets(packets))
        reference = tick.run_packets(packets)
        result = other.run_packets(packets)
        # Registers and table hits accumulate; per-processor counts are per run.
        assert_drmt_equal(result, reference, per_processor=False)
        assert result.per_processor_packets == first.per_processor_packets
        assert sum(result.register_dump["per_flow"]) == 100


class TestDrmtTelemetryFlows:
    @pytest.mark.parametrize("num_processors", (1, 2, 4, 7))
    def test_flow_restricted_traffic_matches_tick(self, num_processors):
        """Traffic confined to three tracked flows: fused == tick."""
        bundle, entries = telemetry(num_processors)
        generator = PacketGenerator(
            bundle.program, seed=5, field_overrides={"pkt.flow_id": choice_field([1, 2, 3])}
        )
        packets = generator.generate(300)
        tick = DRMTSimulator(bundle, table_entries=entries, engine="tick").run_packets(packets)
        fused = DRMTSimulator(bundle, table_entries=entries, engine="fused").run_packets(packets)
        assert_drmt_equal(fused, tick)

    def test_unmatched_flows_share_the_default_bucket(self):
        """Flows without an entry all land on one register cell in every driver."""
        bundle, entries = telemetry()
        packets = PacketGenerator(bundle.program, seed=5).generate(300)
        tick = DRMTSimulator(bundle, table_entries=entries, engine="tick").run_packets(packets)
        for engine in ("fused", "auto"):
            result = DRMTSimulator(bundle, table_entries=entries, engine=engine).run_packets(
                packets
            )
            assert_drmt_equal(result, tick)
            assert result.engine == "fused"

    def test_reused_simulator_accumulates_like_tick(self):
        bundle, entries = telemetry()
        generator = PacketGenerator(
            bundle.program, seed=2, field_overrides={"pkt.flow_id": choice_field([1, 2, 3])}
        )
        packets = generator.generate(100)
        tick = DRMTSimulator(bundle, table_entries=entries, engine="tick")
        fused = DRMTSimulator(bundle, table_entries=entries, engine="fused")
        first = fused.run_packets(packets)
        assert_drmt_equal(first, tick.run_packets(packets))
        reference = tick.run_packets(packets)
        result = fused.run_packets(packets)
        assert_drmt_equal(result, reference, per_processor=False)
        assert result.per_processor_packets == first.per_processor_packets
