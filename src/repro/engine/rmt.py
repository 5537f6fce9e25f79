"""RMT drivers: tick-accurate, generic sequential, and fused.

All three drivers execute the same compiled pipeline description and — for
the feedforward pipelines dgen generates — produce bit-for-bit identical
results: each stage's state is touched in PHV arrival order under every
driver.  They differ only in how much interpreter machinery sits on the hot
path:

* :func:`run_tick` drives :class:`repro.dsim.pipeline.Pipeline`, the paper's
  §3.3 per-tick model (PHV objects, read/write-half commits, slot
  shuffling);
* :func:`run_generic` loops over the description's ``STAGE_FUNCTIONS``
  sequentially, one PHV at a time — no per-tick machinery, works at every
  optimisation level (this is the driver that speeds up opt levels 0-2 and
  the fuzzing workflow);
* :func:`run_fused` hands the whole trace to the generated ``run_trace``
  loop (opt level 3), where the driver itself is generated code.

The module-level helpers :func:`stage_pairs`, :func:`push_phv` and
:func:`run_stage_loop` are the generic driver's core; the Chipmunk CEGIS
candidate evaluator reuses them so synthesis and simulation share one
sequential execution path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dgen.emit import PipelineDescription
from ..dsim.phv import PHV
from ..dsim.pipeline import Pipeline
from ..dsim.trace import Trace
from ..errors import MissingMachineCodeError, SimulationError
from .base import ENGINE_FUSED, ENGINE_GENERIC, ENGINE_TICK
from .result import SimulationResult, sequential_result, validate_widths

#: One stage's compiled function paired with its (mutable) state vectors.
StagePair = Tuple[Callable, List[List[int]]]


# ----------------------------------------------------------------------
# Generic-driver core (shared with the Chipmunk candidate evaluator)
# ----------------------------------------------------------------------
def stage_pairs(
    stage_functions: Sequence[Callable], state: List[List[List[int]]]
) -> List[StagePair]:
    """Pair each stage function with its state vectors for fast iteration."""
    return list(zip(stage_functions, state))


def push_phv(
    pairs: Sequence[StagePair], phv: Sequence[int], values: Optional[Dict[str, int]]
) -> Sequence[int]:
    """Push one PHV through every stage sequentially and return its outputs."""
    for function, stage_state in pairs:
        phv = function(phv, stage_state, values)
    return phv


def run_stage_loop(
    stage_functions: Sequence[Callable],
    inputs: Sequence[Sequence[int]],
    state: List[List[List[int]]],
    values: Optional[Dict[str, int]],
) -> List[Sequence[int]]:
    """The generic sequential driver: all PHVs through all stages, in order.

    Mutates ``state`` in place and returns one output container list per
    input PHV.  Equivalent to the tick-accurate model for a feedforward
    pipeline, without any per-tick allocation.
    """
    pairs = stage_pairs(stage_functions, state)
    outputs: List[Sequence[int]] = []
    append = outputs.append
    try:
        for phv in inputs:
            for function, stage_state in pairs:
                phv = function(phv, stage_state, values)
            append(phv)
    except KeyError as error:
        # Unoptimised descriptions look machine code up at runtime; a missing
        # pair surfaces here (§5.2 failure class 1), as in the tick model.
        raise MissingMachineCodeError(str(error.args[0])) from error
    return outputs


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_tick(
    description: PipelineDescription,
    phv_values: Sequence[Sequence[int]],
    runtime_values: Optional[Dict[str, int]],
    initial_state: Optional[List[List[List[int]]]],
) -> SimulationResult:
    """Tick-accurate driver: the paper's §3.3 per-tick pipeline model."""
    pipeline = Pipeline(
        description, runtime_values=runtime_values, initial_state=initial_state
    )
    inputs = [list(values) for values in phv_values]
    exited: List[PHV] = pipeline.process(inputs)
    if len(exited) != len(inputs):
        raise SimulationError(
            f"pipeline emitted {len(exited)} PHVs for {len(inputs)} inputs"
        )
    trace = Trace()
    for phv, input_values in zip(exited, inputs):
        trace.append(phv.phv_id, input_values, phv.snapshot())
    trace.final_state = pipeline.state_snapshot()
    return SimulationResult(
        input_trace=inputs,
        output_trace=trace,
        ticks=pipeline.current_tick,
        engine=ENGINE_TICK,
    )


def prepare_inputs(
    description: PipelineDescription, phv_values: Sequence[Sequence[int]]
) -> Tuple[List[List[int]], List[List[int]]]:
    """Validate widths and coerce one working copy of the input trace."""
    inputs: List[List[int]] = [list(values) for values in phv_values]
    validate_widths(inputs, description.spec.width)
    work = [list(map(int, values)) for values in inputs]
    return inputs, work


def run_generic(
    description: PipelineDescription,
    phv_values: Sequence[Sequence[int]],
    runtime_values: Optional[Dict[str, int]],
    initial_state: Optional[List[List[List[int]]]],
) -> SimulationResult:
    """Generic sequential driver over the description's stage functions."""
    inputs, work = prepare_inputs(description, phv_values)
    state = initial_state if initial_state is not None else description.initial_state()
    values = runtime_values if runtime_values is not None else description.runtime_values()
    outputs = run_stage_loop(description.stage_functions, work, state, values)
    return sequential_result(
        inputs, outputs, state, description.spec.depth, ENGINE_GENERIC
    )


def run_fused(
    description: PipelineDescription,
    phv_values: Sequence[Sequence[int]],
    runtime_values: Optional[Dict[str, int]],
    initial_state: Optional[List[List[List[int]]]],
) -> SimulationResult:
    """Fused driver: the generated ``run_trace`` loop (opt level 3)."""
    fused = description.fused_function
    if fused is None:
        raise SimulationError(
            "description carries no fused run_trace entry point "
            f"(opt level {description.opt_level})"
        )
    inputs, work = prepare_inputs(description, phv_values)
    state = initial_state if initial_state is not None else description.initial_state()
    values = runtime_values if runtime_values is not None else description.runtime_values()
    outputs = fused(work, state, values)
    return sequential_result(
        inputs, outputs, state, description.spec.depth, ENGINE_FUSED
    )
