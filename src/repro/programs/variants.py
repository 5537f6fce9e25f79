"""Parametric program variants.

The paper's case study (§5.2) validates *over 120* compiler-generated machine
code programs.  To rebuild a corpus of comparable size, this module provides
factories that instantiate whole families of programs — each family varies a
constant (sampling period, accumulator increment, comparison threshold, AQM
decrement) consistently in both the machine code and the high-level
specification, so every member is an independent machine-code program with
its own oracle.

The families are :func:`make_sampling_variant`,
:func:`make_accumulator_variant`, :func:`make_threshold_variant` and
:func:`make_blue_decrease_variant`.  Each factory returns a
:class:`~repro.programs.base.BenchmarkProgram`, so the corpus members plug
into the same fuzzing machinery as the Table-1 programs.
"""

from __future__ import annotations

from typing import Dict, List

from ..chipmunk.allocation import MachineCodeBuilder
from ..machine_code import naming
from .base import BenchmarkProgram


def make_sampling_variant(period: int) -> BenchmarkProgram:
    """Sampling with a configurable period (one flagged packet every ``period``)."""
    if period < 2:
        raise ValueError("sampling period must be at least 2")

    def spec(phv: List[int], state: Dict[str, int]) -> List[int]:
        old_count = state["count"]
        if state["count"] == period - 1:
            state["count"] = 0
        else:
            state["count"] = state["count"] + 1
        return [1 if old_count == period - 1 else 0]

    def build(builder: MachineCodeBuilder) -> None:
        builder.configure_if_else_raw(
            stage=0,
            slot=0,
            cond=("==", True, ("const", period - 1)),
            then=(False, ("const", 0)),
            els=(True, ("const", 1)),
            input_containers=[0, 0],
        )
        builder.route_output(stage=0, container=0, kind=naming.STATEFUL, slot=0)
        builder.configure_stateless_full(
            stage=1,
            slot=0,
            mode="rel",
            op="==",
            a=("pkt", 0),
            b=("const", period - 1),
            input_containers=[0, 0],
        )
        builder.route_output(stage=1, container=0, kind=naming.STATELESS, slot=0)

    return BenchmarkProgram(
        name=f"sampling_period_{period}",
        display_name=f"Sampling (1 in {period})",
        depth=2,
        width=1,
        stateful_atom="if_else_raw",
        description=f"Sampling variant flagging one packet in every {period}.",
        spec_function=spec,
        build_machine_code=build,
        state_template={"count": 0},
        relevant_containers=[0],
    )


def make_accumulator_variant(increment: int) -> BenchmarkProgram:
    """A running counter that grows by ``increment`` per packet (raw atom, 1x1)."""
    if increment < 0:
        raise ValueError("increment must be unsigned")

    def spec(phv: List[int], state: Dict[str, int]) -> List[int]:
        old_total = state["total"]
        state["total"] = state["total"] + increment
        return [old_total]

    def build(builder: MachineCodeBuilder) -> None:
        builder.configure_raw(
            stage=0,
            slot=0,
            use_state=True,
            rhs=("const", increment),
            input_containers=[0, 0],
        )
        builder.route_output(stage=0, container=0, kind=naming.STATEFUL, slot=0)

    return BenchmarkProgram(
        name=f"accumulator_inc_{increment}",
        display_name=f"Accumulator (+{increment})",
        depth=1,
        width=1,
        stateful_atom="raw",
        description=f"Counter incremented by {increment} per packet, exposing the previous total.",
        spec_function=spec,
        build_machine_code=build,
        state_template={"total": 0},
        relevant_containers=[0],
    )


def make_threshold_variant(threshold: int, machine_code_threshold: int | None = None) -> BenchmarkProgram:
    """Flag packets whose value exceeds ``threshold`` (stateless, 1x1).

    ``machine_code_threshold`` deliberately lets the machine code use a
    *different* constant than the specification: with a smaller constant the
    program is correct for container values up to that constant and wrong
    above it — precisely the paper's "insufficient machine code values"
    failure class, used by the case-study harness for failure injection.
    """
    actual = threshold if machine_code_threshold is None else machine_code_threshold

    def spec(phv: List[int], state: Dict[str, int]) -> List[int]:
        return [1 if phv[0] > threshold else 0]

    def build(builder: MachineCodeBuilder) -> None:
        builder.configure_stateless_full(
            stage=0,
            slot=0,
            mode="rel",
            op=">",
            a=("pkt", 0),
            b=("const", actual),
            input_containers=[0, 0],
        )
        builder.route_output(stage=0, container=0, kind=naming.STATELESS, slot=0)

    suffix = "" if machine_code_threshold is None else f"_mc{machine_code_threshold}"
    return BenchmarkProgram(
        name=f"threshold_{threshold}{suffix}",
        display_name=f"Threshold (> {threshold})",
        depth=1,
        width=1,
        stateful_atom="raw",
        description=f"Stateless comparison flagging container values above {threshold}.",
        spec_function=spec,
        build_machine_code=build,
        state_template={},
        relevant_containers=[0],
    )


def make_blue_decrease_variant(delta: int, initial: int = 500) -> BenchmarkProgram:
    """BLUE decrease with a configurable decrement and initial probability."""
    if delta < 0 or initial < 0:
        raise ValueError("delta and initial value must be unsigned")

    def spec(phv: List[int], state: Dict[str, int]) -> List[int]:
        outputs = list(phv)
        outputs[1] = state["p_mark"]
        if state["p_mark"] > 0:
            state["p_mark"] = state["p_mark"] - delta
        return outputs

    def build(builder: MachineCodeBuilder) -> None:
        builder.configure_sub(
            stage=0,
            slot=0,
            cond=(">", True, ("const", 0)),
            then=("-", True, ("const", delta)),
            els=("+", True, ("const", 0)),
            input_containers=[0, 0],
        )
        builder.route_output(stage=0, container=1, kind=naming.STATEFUL, slot=0)

    return BenchmarkProgram(
        name=f"blue_decrease_delta_{delta}_init_{initial}",
        display_name=f"BLUE decrease (-{delta})",
        depth=4,
        width=2,
        stateful_atom="sub",
        description=f"BLUE decrease variant subtracting {delta} per idle event from {initial}.",
        spec_function=spec,
        build_machine_code=build,
        state_template={"p_mark": initial},
        relevant_containers=[1],
        initial_stateful_values={(0, 0): [initial]},
    )
