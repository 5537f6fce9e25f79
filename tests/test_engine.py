"""The unified execution-engine layer: selection rules and cross-architecture
equivalence.

The tentpole guarantee of the engine layer is that one compiled program
produces bit-for-bit identical results under every driver of *both*
architectures: the RMT pipeline (tick, generic, fused) and the dRMT-style
run-to-completion model (tick, generic, fused) touch every stage's state in
packet arrival order, so outputs and final state cannot differ.  The big
parametrised test below pins that down for all 12 Table-1 programs over 3
seeds.
"""

from __future__ import annotations

import pytest

from repro import dgen
from repro.dsim import RMTSimulator
from repro.engine import (
    ENGINE_CHOICES,
    ExecutionEngine,
    RunToCompletionSimulator,
    resolve_engine,
)
from repro.errors import SimulationError
from repro.programs import TABLE1_ORDER, get_program

SEEDS = (0, 7, 1234)
PHVS = 120


@pytest.fixture(scope="module")
def descriptions():
    """Opt-level-3 descriptions per program (generated once, reused by every engine)."""
    cache = {}
    for name in TABLE1_ORDER:
        program = get_program(name)
        cache[name] = (
            program,
            dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED),
        )
    return cache


class TestCrossArchitectureEquivalence:
    @pytest.mark.parametrize("program_name", TABLE1_ORDER)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_engines_agree(self, descriptions, program_name, seed):
        """12 programs x 3 seeds: six drivers across two architectures agree."""
        program, description = descriptions[program_name]
        inputs = program.traffic_generator(seed=seed).generate(PHVS)

        results = {}
        for engine in ("tick", "generic", "fused"):
            results[f"rmt-{engine}"] = RMTSimulator(
                description,
                initial_state=program.initial_pipeline_state(),
                engine=engine,
            ).run(inputs)
            results[f"rtc-{engine}"] = RunToCompletionSimulator(
                description,
                num_processors=3,
                initial_state=program.initial_pipeline_state(),
                engine=engine,
            ).run(inputs)

        reference = results["rmt-tick"]
        for label, result in results.items():
            assert result.outputs == reference.outputs, label
            assert result.final_state == reference.final_state, label
            assert result.input_trace == reference.input_trace, label
            assert [record.phv_id for record in result.output_trace] == [
                record.phv_id for record in reference.output_trace
            ], label

    def test_engine_attribute_names_driver(self, descriptions):
        program, description = descriptions["sampling"]
        inputs = program.traffic_generator(seed=1).generate(10)
        state = program.initial_pipeline_state()
        assert RMTSimulator(description, initial_state=state).run(inputs).engine == "fused"
        assert (
            RMTSimulator(description, initial_state=state, engine="generic").run(inputs).engine
            == "generic"
        )
        assert (
            RMTSimulator(description, initial_state=state).run(inputs, tick_accurate=True).engine
            == "tick"
        )
        rtc = RunToCompletionSimulator(description, initial_state=state)
        assert rtc.run(inputs).engine == "rtc-fused"
        assert rtc.run(inputs, tick_accurate=True).engine == "rtc-tick"


class TestSelectionRules:
    def test_resolve_engine_auto_prefers_fused(self):
        assert resolve_engine("auto", fused_available=True) == "fused"
        assert resolve_engine("auto", fused_available=False) == "generic"

    def test_tick_accurate_always_wins(self):
        for requested in ENGINE_CHOICES:
            assert resolve_engine(requested, fused_available=True, tick_accurate=True) == "tick"

    def test_explicit_fused_requires_fused_entry_point(self):
        with pytest.raises(SimulationError, match="fused"):
            resolve_engine("fused", fused_available=False)

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown engine"):
            resolve_engine("warp", fused_available=True)

    def test_unavailable_engine_error_lists_available_drivers(self):
        """The error for an unavailable driver names the ones that exist."""
        program = get_program("conga")
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_SCC_INLINE
        )
        with pytest.raises(SimulationError) as excinfo:
            RMTSimulator(description, engine="fused").run([[0] * program.width])
        message = str(excinfo.value)
        assert "carries no fused run_trace entry point" in message
        assert "available drivers for this pipeline description: tick, generic" in message

    def test_every_facade_knows_exactly_auto_and_the_three_drivers(self, descriptions):
        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
        from repro.p4 import samples

        assert ENGINE_CHOICES == ("auto", "tick", "generic", "fused")
        message = "unknown engine 'parallel'; choose one of auto, tick, generic, fused"
        with pytest.raises(SimulationError, match=message):
            resolve_engine("parallel", fused_available=True)
        program, description = descriptions["sampling"]
        inputs = [[0] * program.width]
        for simulator in (
            RMTSimulator(description, engine="parallel"),
            RunToCompletionSimulator(description, engine="parallel"),
        ):
            with pytest.raises(SimulationError, match=message):
                simulator.run(inputs)
        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams())
        with pytest.raises(SimulationError, match=message):
            DRMTSimulator(bundle, engine="parallel").run_traffic(3)

    def test_simulator_rejects_fused_below_level3(self):
        program = get_program("sampling")
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_SCC_INLINE
        )
        with pytest.raises(SimulationError):
            RMTSimulator(description, engine="fused").run([[0] * program.width])

    def test_generic_driver_serves_every_level(self):
        program = get_program("rcp")
        inputs = program.traffic_generator(seed=3).generate(60)
        outputs = None
        for level in dgen.OPT_LEVELS:
            description = dgen.generate(
                program.pipeline_spec(), program.machine_code(), opt_level=level
            )
            result = RMTSimulator(
                description,
                initial_state=program.initial_pipeline_state(),
                engine="generic",
            ).run(inputs)
            assert result.engine == "generic"
            if outputs is None:
                outputs = result.outputs
            else:
                assert result.outputs == outputs, f"level {level} diverged"


class TestProtocolConformance:
    def test_simulators_satisfy_execution_engine_protocol(self, descriptions):
        program, description = descriptions["sampling"]
        assert isinstance(RMTSimulator(description), ExecutionEngine)
        assert isinstance(RunToCompletionSimulator(description), ExecutionEngine)

        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
        from repro.p4 import samples

        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams())
        assert isinstance(DRMTSimulator(bundle), ExecutionEngine)


class TestLeanImport:
    def test_import_repro_loads_neither_numpy_nor_multiprocessing(self):
        """Every driver runs in process; importing the package stays stdlib-light."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import sys, repro; "
            "print(sorted({'numpy', 'multiprocessing'} & set(sys.modules)))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert completed.stdout.strip() == "[]"


class TestRunToCompletionSimulator:
    def test_round_robin_assignment(self, descriptions):
        _program, description = descriptions["sampling"]
        simulator = RunToCompletionSimulator(description, num_processors=4)
        assert [simulator.processor_of(index) for index in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_needs_at_least_one_processor(self, descriptions):
        _program, description = descriptions["sampling"]
        with pytest.raises(SimulationError):
            RunToCompletionSimulator(description, num_processors=0)

    def test_empty_trace(self, descriptions):
        _program, description = descriptions["sampling"]
        result = RunToCompletionSimulator(description).run([])
        assert result.ticks == 0
        assert len(result.output_trace) == 0

    def test_tick_count_reflects_run_to_completion_latency(self, descriptions):
        program, description = descriptions["snap_heavy_hitter"]
        inputs = program.traffic_generator(seed=2).generate(25)
        result = RunToCompletionSimulator(
            description, initial_state=program.initial_pipeline_state()
        ).run(inputs, tick_accurate=True)
        # Last packet enters at tick 24 and finishes its final stage
        # depth-1 ticks later (one earlier than the pipeline's exit tick).
        assert result.ticks == 25 + description.spec.depth - 1

    def test_does_not_mutate_caller_initial_state(self, descriptions):
        program, description = descriptions["flowlets"]
        initial = program.initial_pipeline_state()
        snapshot = [[list(alu) for alu in stage] for stage in initial]
        inputs = program.traffic_generator(seed=9).generate(30)
        for engine in ("tick", "generic", "fused"):
            RunToCompletionSimulator(
                description, initial_state=initial, engine=engine
            ).run(inputs)
            assert initial == snapshot, engine
