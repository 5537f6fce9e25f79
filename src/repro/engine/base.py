"""Execution-engine protocol and driver-selection rules.

An *execution engine* runs a compiled program on an input trace.  The layer
recognises three drivers, forming a ladder from most faithful to fastest:

``tick``
    The cycle-accurate interpreter of the paper (§3.3 for RMT, §4.2 for
    dRMT).  Always available; the only driver the time-travel debugger's
    per-tick recorder can follow.
``generic``
    A sequential driver that loops over the compiled per-stage /
    per-operation functions with no per-tick bookkeeping.  Available at
    every optimisation level.
``fused``
    The generated ``run_trace`` loop (the driver itself is generated code).
    Available when the program was generated with a fused entry point.

``auto`` resolves to the fastest available driver (fused, else generic);
``tick_accurate=True`` on a ``run`` call always forces the tick driver, no
matter which engine the simulator was configured with.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from ..errors import SimulationError

#: Engine names accepted by every simulator facade.
ENGINE_AUTO = "auto"
ENGINE_TICK = "tick"
ENGINE_GENERIC = "generic"
ENGINE_FUSED = "fused"
ENGINE_CHOICES = (ENGINE_AUTO, ENGINE_TICK, ENGINE_GENERIC, ENGINE_FUSED)


@runtime_checkable
class ExecutionEngine(Protocol):
    """The common contract every simulator facade satisfies.

    ``run`` takes the architecture's input trace (PHV container lists for
    RMT, packet field dicts for dRMT) and returns a simulation result whose
    ``engine`` attribute names the driver that actually executed the trace.
    """

    def run(self, inputs: Sequence, tick_accurate: bool = False):  # pragma: no cover - protocol
        """Simulate ``inputs``; ``tick_accurate=True`` forces the tick driver."""
        ...


def available_engines(fused_available: bool) -> tuple:
    """The drivers a compiled program can actually run under, in ladder order."""
    if fused_available:
        return (ENGINE_TICK, ENGINE_GENERIC, ENGINE_FUSED)
    return (ENGINE_TICK, ENGINE_GENERIC)


def resolve_engine(
    requested: str,
    fused_available: bool,
    tick_accurate: bool = False,
    context: str = "pipeline",
) -> str:
    """Resolve a requested engine name to a concrete driver.

    Selection rules:

    * ``tick_accurate=True`` always wins and selects ``tick``;
    * ``auto`` selects ``fused`` when the compiled program carries a fused
      entry point, otherwise ``generic``;
    * ``fused`` requested explicitly raises :class:`SimulationError` when
      unavailable (instead of silently degrading), naming the drivers that
      *are* available for the program.
    """
    if requested not in ENGINE_CHOICES:
        raise SimulationError(
            f"unknown engine {requested!r}; choose one of {', '.join(ENGINE_CHOICES)}"
        )
    if tick_accurate:
        return ENGINE_TICK
    if requested == ENGINE_AUTO:
        return ENGINE_FUSED if fused_available else ENGINE_GENERIC
    available = available_engines(fused_available)
    if requested not in available:
        raise SimulationError(
            f"the {requested} engine was requested but this {context} carries no fused "
            "run_trace entry point (generate at opt level 3, or use engine='auto'); "
            f"available drivers for this {context}: {', '.join(available)}"
        )
    return requested
