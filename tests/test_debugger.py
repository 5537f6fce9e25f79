"""Tests for the time-travel debugger (recording, cursor, breakpoints, tracing)."""

import pytest

from repro import dgen
from repro.debugger import (
    TimeTravelDebugger,
    container_breakpoint,
    phv_exit_breakpoint,
    record_execution,
    state_breakpoint,
)
from repro.errors import SimulationError
from repro.programs import get_program


@pytest.fixture(scope="module")
def sampling_recording():
    program = get_program("sampling")
    description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
    inputs = [[i] for i in range(15)]
    return record_execution(
        description, inputs, initial_state=program.initial_pipeline_state()
    ), inputs


class TestRecording:
    def test_tick_count_includes_drain(self, sampling_recording):
        recording, inputs = sampling_recording
        assert recording.num_ticks == len(inputs) + recording.depth

    def test_every_phv_exits_with_recorded_output(self, sampling_recording):
        recording, inputs = sampling_recording
        for phv_id in range(len(inputs)):
            assert recording.exit_tick(phv_id) is not None
            assert len(recording.phv_output(phv_id)) == 1

    def test_outputs_match_plain_simulation(self, sampling_recording):
        recording, inputs = sampling_recording
        program = get_program("sampling")
        from repro.dsim import RMTSimulator

        description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
        plain = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(inputs)
        for phv_id, expected in enumerate(plain.outputs):
            assert tuple(recording.phv_output(phv_id)) == expected

    def test_state_series_is_the_wrapping_counter(self, sampling_recording):
        recording, _inputs = sampling_recording
        series = recording.state_series(stage=0, slot=0, state_var=0)
        assert series[:11] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1]

    def test_phv_journey_covers_every_stage(self, sampling_recording):
        recording, _inputs = sampling_recording
        journey = recording.phv_journey(3)
        assert [occupancy.stage for occupancy in journey] == [0, 1]

    def test_snapshot_range_checked(self, sampling_recording):
        recording, _inputs = sampling_recording
        with pytest.raises(SimulationError):
            recording.snapshot(recording.num_ticks)

    def test_describe_tick_mentions_stages_and_state(self, sampling_recording):
        recording, _inputs = sampling_recording
        text = recording.describe_tick(2)
        assert "stage 0" in text and "state[0]" in text

    def test_unknown_phv_output_rejected(self, sampling_recording):
        recording, _inputs = sampling_recording
        with pytest.raises(SimulationError):
            recording.phv_output(999)


class TestDebuggerCursor:
    def test_step_rewind_goto(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        assert debugger.at_start
        debugger.step(3)
        assert debugger.current_tick == 3
        debugger.rewind(2)
        assert debugger.current_tick == 1
        debugger.goto(5)
        assert debugger.current.tick == 5

    def test_step_clamps_at_end(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.step(10_000)
        assert debugger.at_end

    def test_rewind_clamps_at_start(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.rewind(5)
        assert debugger.at_start

    def test_goto_out_of_range_rejected(self, sampling_recording):
        recording, _inputs = sampling_recording
        with pytest.raises(SimulationError):
            TimeTravelDebugger(recording).goto(10_000)

    def test_state_at_cursor_and_describe(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.goto(9)
        assert debugger.state_at_cursor(0, 0) == [0]  # counter wrapped on the 10th packet
        assert "tick 9" in debugger.describe()


class TestBreakpoints:
    def test_state_breakpoint_forward(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(state_breakpoint(0, 0, 0, lambda value: value == 0))
        snapshot = debugger.run_forward()
        assert snapshot is not None
        # The counter wraps to 0 after the 10th packet (tick index 9).
        assert snapshot.tick == 9

    def test_container_breakpoint_catches_sample_flag(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(container_breakpoint(1, 0, lambda value: value == 1))
        snapshot = debugger.run_forward()
        assert snapshot is not None
        assert snapshot.stages[1].write[0] == 1

    def test_run_backward_finds_previous_event(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.goto(recording.num_ticks - 1)
        debugger.add_breakpoint(state_breakpoint(0, 0, 0, lambda value: value == 0))
        snapshot = debugger.run_backward()
        assert snapshot is not None and snapshot.tick == 9

    def test_run_without_breakpoints_rejected(self, sampling_recording):
        recording, _inputs = sampling_recording
        with pytest.raises(SimulationError):
            TimeTravelDebugger(recording).run_forward()

    def test_run_forward_returns_none_when_no_match(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(state_breakpoint(0, 0, 0, lambda value: value > 100))
        assert debugger.run_forward() is None

    def test_phv_exit_breakpoint_and_trace_origin(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(phv_exit_breakpoint(9))
        snapshot = debugger.run_forward()
        assert snapshot is not None and snapshot.exited == 9
        trace = debugger.trace_origin(9)
        assert any("stage 0" in line for line in trace)
        assert trace[-1].startswith("exited at tick")

    def test_clear_breakpoints(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(phv_exit_breakpoint(1))
        debugger.clear_breakpoints()
        assert debugger.breakpoints == []


class TestRecordingLevel0:
    def test_recording_with_runtime_values(self):
        """Recording also works for unoptimised descriptions with runtime machine code."""
        program = get_program("snap_heavy_hitter")
        description = dgen.generate(program.pipeline_spec(), None, opt_level=0)
        recording = record_execution(
            description,
            [[5], [6]],
            runtime_values=program.machine_code().as_dict(),
        )
        assert recording.phv_output(1) == [1]  # old packet count after one packet


class TestTickRecordingAtOptLevel3:
    """The tick recorder follows a fused (opt level 3) description."""

    @pytest.fixture(scope="class")
    def recorded_and_fused(self):
        from repro.dsim import RMTSimulator

        program = get_program("flowlets")
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=3
        )
        inputs = program.traffic_generator(seed=11).generate(30)
        recording = record_execution(
            description, inputs, initial_state=program.initial_pipeline_state()
        )
        fused = RMTSimulator(
            description, initial_state=program.initial_pipeline_state()
        ).run(inputs)
        return recording, fused

    def test_outputs_and_final_state_equal_fused_run(self, recorded_and_fused):
        recording, fused = recorded_and_fused
        assert fused.engine == "fused"
        for phv_id, expected in enumerate(fused.outputs):
            assert tuple(recording.phv_output(phv_id)) == expected
        final = recording.snapshot(recording.num_ticks - 1).state
        assert [[list(alu) for alu in stage] for stage in final] == fused.final_state

    def test_journey_has_one_occupancy_per_stage(self, recorded_and_fused):
        recording, _fused = recorded_and_fused
        assert [occupancy.stage for occupancy in recording.phv_journey(4)] == list(
            range(recording.depth)
        )

    def test_state_series_has_one_value_per_tick(self, recorded_and_fused):
        recording, _fused = recorded_and_fused
        assert len(recording.state_series(0, 0, 0)) == recording.num_ticks

    def test_unknown_phv_rejected(self, recorded_and_fused):
        recording, _fused = recorded_and_fused
        with pytest.raises(SimulationError):
            recording.phv_output(10_000)

    def test_recording_does_not_mutate_caller_initial_state(self):
        program = get_program("flowlets")
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=3
        )
        initial = program.initial_pipeline_state()
        pristine = [[list(alu) for alu in stage] for stage in initial]
        inputs = program.traffic_generator(seed=1).generate(20)
        first = record_execution(description, inputs, initial_state=initial)
        second = record_execution(description, inputs, initial_state=initial)
        final = [[list(alu) for alu in stage] for stage in first.snapshots[-1].state]
        assert final != pristine  # the run moves the state ...
        assert initial == pristine  # ... but not the caller's vectors
        assert second.snapshots[-1].state == first.snapshots[-1].state
