"""dRMT fused codegen: bit-for-bit fidelity, hazard analysis, driver selection."""

from __future__ import annotations

import re

import pytest

from repro.drmt import (
    DRMTSimulator,
    DrmtHardwareParams,
    PacketGenerator,
    generate_bundle,
    run_to_completion_hazard,
)
from repro.drmt.fused import visit_orders
from repro.errors import CodegenError, SimulationError
from repro.p4 import samples

SEEDS = (0, 7, 1234)

PROGRAMS = {
    "simple_router": (samples.simple_router, samples.SIMPLE_ROUTER_ENTRIES),
    "telemetry_pipeline": (samples.telemetry_pipeline, samples.TELEMETRY_ENTRIES),
}

#: Two tables whose actions touch the same register: the later table's action
#: launches at a later cycle, so the tick model interleaves the register
#: accesses across packets — the case run-to-completion cannot reproduce but
#: the fused loop (which replays the tick interleaving) must.
HAZARD_PROGRAM = """
header_type pkt_t {
    fields {
        f : 16;
    }
}

header_type meta_t {
    fields {
        tmp : 32;
    }
}

header pkt_t pkt;
metadata meta_t meta;

register shared {
    width : 32;
    instance_count : 4;
}

action bump() {
    register_read(meta.tmp, shared, 0);
    add_to_field(meta.tmp, 1);
    register_write(shared, 0, meta.tmp);
}

action scale() {
    register_read(meta.tmp, shared, 0);
    add_to_field(meta.tmp, pkt.f);
    register_write(shared, 0, meta.tmp);
}

table first {
    reads {
        pkt.f : exact;
    }
    actions { bump; }
    size : 4;
    default_action : bump;
}

table second {
    reads {
        meta.tmp : exact;
    }
    actions { scale; }
    size : 4;
    default_action : scale;
}

control ingress {
    apply(first);
    apply(second);
}
"""


def _records_equal(left, right):
    for a, b in zip(left.records, right.records):
        for field in (
            "packet_id",
            "processor",
            "arrival_tick",
            "completed_tick",
            "inputs",
            "outputs",
            "dropped",
        ):
            if getattr(a, field) != getattr(b, field):
                return False, (field, a, b)
    return True, None


def run_engines(program_factory, entries, num_processors, seed, count=150, engines=("tick", "generic", "fused")):
    bundle = generate_bundle(
        program_factory(), DrmtHardwareParams(num_processors=num_processors)
    )
    packets = PacketGenerator(bundle.program, seed=seed).generate(count)
    return {
        engine: DRMTSimulator(bundle, table_entries=entries, engine=engine).run_packets(packets)
        for engine in engines
    }


class TestFusedMatchesTick:
    @pytest.mark.parametrize("program_name", sorted(PROGRAMS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_for_bit(self, program_name, seed):
        factory, entries = PROGRAMS[program_name]
        results = run_engines(factory, entries, num_processors=2, seed=seed)
        tick = results["tick"]
        for engine in ("generic", "fused"):
            other = results[engine]
            equal, detail = _records_equal(tick, other)
            assert equal, (engine, detail)
            assert other.ticks == tick.ticks
            assert other.per_processor_packets == tick.per_processor_packets
            assert other.per_processor_operations == tick.per_processor_operations
            assert other.table_hits == tick.table_hits
            assert other.register_dump == tick.register_dump
            assert other.engine == engine

    @pytest.mark.parametrize("program_name", sorted(PROGRAMS))
    @pytest.mark.parametrize("num_processors", [1, 3, 4])
    def test_processor_counts(self, program_name, num_processors):
        factory, entries = PROGRAMS[program_name]
        results = run_engines(factory, entries, num_processors=num_processors, seed=5)
        tick = results["tick"]
        for engine in ("generic", "fused"):
            equal, detail = _records_equal(tick, results[engine])
            assert equal, (engine, detail)
            assert results[engine].table_hits == tick.table_hits
            assert results[engine].register_dump == tick.register_dump

    def test_empty_trace(self):
        factory, entries = PROGRAMS["simple_router"]
        results = run_engines(factory, entries, num_processors=2, seed=0, count=0)
        for engine, result in results.items():
            assert result.ticks == 0, engine
            assert result.records == []

    def test_auto_selects_fused(self):
        factory, entries = PROGRAMS["telemetry_pipeline"]
        bundle = generate_bundle(factory(), DrmtHardwareParams(num_processors=2))
        packets = PacketGenerator(bundle.program, seed=3).generate(20)
        result = DRMTSimulator(bundle, table_entries=entries).run_packets(packets)
        assert result.engine == "fused"
        forced = DRMTSimulator(bundle, table_entries=entries).run_packets(
            packets, tick_accurate=True
        )
        assert forced.engine == "tick"
        equal, detail = _records_equal(forced, result)
        assert equal, detail

    def test_fused_program_cached_on_bundle(self):
        factory, _entries = PROGRAMS["simple_router"]
        bundle = generate_bundle(factory(), DrmtHardwareParams(num_processors=2))
        assert bundle.fused_program() is bundle.fused_program()
        assert "run_trace" in bundle.fused_program().source


class TestHazardAnalysis:
    def test_sample_programs_are_hazard_free(self):
        for factory, _entries in PROGRAMS.values():
            bundle = generate_bundle(factory(), DrmtHardwareParams(num_processors=2))
            assert run_to_completion_hazard(bundle.program, bundle.schedule) is None

    def test_cross_cycle_register_access_is_reported(self):
        bundle = generate_bundle(HAZARD_PROGRAM, DrmtHardwareParams(num_processors=2))
        hazard = run_to_completion_hazard(bundle.program, bundle.schedule)
        assert hazard is not None
        assert "shared" in hazard

    def test_generic_engine_refuses_hazardous_program(self):
        bundle = generate_bundle(HAZARD_PROGRAM, DrmtHardwareParams(num_processors=2))
        packets = PacketGenerator(bundle.program, seed=0).generate(10)
        with pytest.raises(SimulationError, match="shared"):
            DRMTSimulator(bundle, engine="generic").run_packets(packets)

    def test_auto_falls_back_to_fused_not_generic(self):
        bundle = generate_bundle(HAZARD_PROGRAM, DrmtHardwareParams(num_processors=2))
        packets = PacketGenerator(bundle.program, seed=0).generate(10)
        result = DRMTSimulator(bundle).run_packets(packets)
        assert result.engine == "fused"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fused_replays_interleaving_on_hazardous_program(self, seed):
        """The fused loop stays bit-for-bit even where run-to-completion cannot."""
        bundle = generate_bundle(HAZARD_PROGRAM, DrmtHardwareParams(num_processors=3))
        packets = PacketGenerator(bundle.program, seed=seed).generate(120)
        tick = DRMTSimulator(bundle, engine="tick").run_packets(packets)
        fused = DRMTSimulator(bundle, engine="fused").run_packets(packets)
        equal, detail = _records_equal(tick, fused)
        assert equal, detail
        assert fused.register_dump == tick.register_dump


class TestVisitOrders:
    def test_orders_follow_processor_then_arrival(self):
        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams(num_processors=2))
        orders = visit_orders(bundle.schedule, 2)
        assert len(orders) == 2
        active = sorted({start for start in bundle.schedule.start_times.values()})
        for residue, order in enumerate(orders):
            assert sorted(order) == active
            # Within one residue the cycles are grouped by the processor of
            # packet p = t - c, and ordered by arrival (descending cycle).
            keys = [((residue - c) % 2, -c) for c in order]
            assert keys == sorted(keys)


class TestAutoLadder:
    """``auto`` steps down from fused only when fused generation fails."""

    @pytest.mark.parametrize(
        "source, expected",
        [(samples.SIMPLE_ROUTER, "generic"), (HAZARD_PROGRAM, "tick")],
    )
    def test_codegen_error_falls_back(self, monkeypatch, source, expected):
        bundle = generate_bundle(source, DrmtHardwareParams(num_processors=2))

        def fail():
            raise CodegenError("no fused loop for this bundle")

        monkeypatch.setattr(bundle, "fused_program", fail)
        packets = PacketGenerator(bundle.program, seed=3).generate(10)
        result = DRMTSimulator(bundle).run_packets(packets)
        assert result.engine == expected
        tick = DRMTSimulator(bundle, engine="tick").run_packets(packets)
        equal, detail = _records_equal(tick, result)
        assert equal, detail

    def test_other_errors_propagate(self, monkeypatch):
        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams(num_processors=2))

        def fail():
            raise SimulationError("broken bundle")

        monkeypatch.setattr(bundle, "fused_program", fail)
        with pytest.raises(SimulationError, match="broken bundle"):
            DRMTSimulator(bundle).run_packets([{}])


class TestNonIntPacketValues:
    """Every driver coerces packet values with ``int`` at injection."""

    def test_drivers_agree_on_bool_and_float_values(self):
        factory, entries = PROGRAMS["telemetry_pipeline"]
        bundle = generate_bundle(factory(), DrmtHardwareParams(num_processors=2))
        packets = [
            {"pkt.flow_id": True, "pkt.size": 2.5, "pkt.queue_depth": 65280.0},
            {"pkt.flow_id": 2, "pkt.size": 7.9, "pkt.queue_depth": False},
            {"pkt.flow_id": 3, "pkt.size": 4, "pkt.queue_depth": 1},
        ]
        results = {
            engine: DRMTSimulator(bundle, table_entries=entries, engine=engine).run_packets(packets)
            for engine in ("tick", "generic", "fused")
        }
        tick = results["tick"]
        assert tick.records[0].outputs["pkt.size"] == 2
        assert tick.records[0].inputs == packets[0]
        for engine in ("generic", "fused"):
            equal, detail = _records_equal(tick, results[engine])
            assert equal, (engine, detail)
            assert results[engine].register_dump == tick.register_dump
        for result in results.values():
            for record in result.records:
                assert all(type(value) is int for value in record.outputs.values())


def test_one_generated_loop_per_program():
    """Every fused program, RMT and dRMT, defines ``run_trace`` and no other loop."""
    from repro import dgen
    from repro.programs import all_programs

    def loops(names):
        return sorted(name for name in names if name.lower().startswith("run_trace"))

    for program in all_programs():
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=3
        )
        assert loops(re.findall(r"^def (\w+)", description.source, re.M)) == ["run_trace"]
        assert loops(description.namespace) == ["RUN_TRACE", "run_trace"]
    for factory, _entries in PROGRAMS.values():
        fused = generate_bundle(factory(), DrmtHardwareParams(num_processors=2)).fused_program()
        assert loops(re.findall(r"^def (\w+)", fused.source, re.M)) == ["run_trace"]
        assert loops(fused.namespace) == ["RUN_TRACE", "run_trace"]
