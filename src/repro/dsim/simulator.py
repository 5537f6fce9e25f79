"""dsim: the RMT simulation driver (paper §3.3).

:class:`RMTSimulator` glues the pieces together: it takes a compiled pipeline
description (from dgen), an input PHV trace (usually from the traffic
generator), runs the feedforward pipeline, and returns the output trace
together with the final state vectors.

Execution is delegated to the unified engine layer (:mod:`repro.engine`),
which provides three drivers, all running in the calling process:

* **tick** — the paper's §3.3 model: one PHV enters per tick, PHVs in flight
  advance one stage per tick with read/write-half commits.  Always
  available; the debugger records from this driver.  ``tick_accurate=True``
  forces it.
* **generic** — a sequential loop over the generated stage functions, one
  PHV at a time.  Bit-for-bit equivalent to the tick model for a
  feedforward pipeline and much faster (no per-tick allocation); available
  at every optimisation level and therefore the default below level 3.
* **fused** — the generated ``run_trace`` loop carried by descriptions
  produced at opt level 3, where the simulation driver itself is generated
  code.  The default whenever available.

The ``engine`` constructor argument pins a driver explicitly (``"tick"``,
``"generic"``, ``"fused"``) or leaves the choice to the selection rules
(``"auto"``: fused when the description carries it, else generic).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..engine.base import ENGINE_AUTO, ENGINE_GENERIC, ENGINE_TICK, resolve_engine
from ..engine.result import SimulationResult
from ..errors import SimulationError
from ..traffic import TrafficGenerator

__all__ = ["RMTSimulator", "SimulationResult", "simulate"]


class RMTSimulator:
    """Runs PHV traces through a compiled pipeline description."""

    def __init__(
        self,
        description,
        runtime_values: Optional[Dict[str, int]] = None,
        initial_state: Optional[List[List[List[int]]]] = None,
        engine: str = ENGINE_AUTO,
    ):
        self.description = description
        self.engine = engine
        self._runtime_values = runtime_values
        self._initial_state = initial_state

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self, phv_values: Sequence[Sequence[int]], tick_accurate: bool = False
    ) -> SimulationResult:
        """Simulate the pipeline on an explicit input trace.

        The driver follows the engine layer's selection rules: ``auto``
        dispatches to the description's fused ``run_trace`` entry point when
        one exists (opt level 3) and to the generic sequential driver
        otherwise; pass ``tick_accurate=True`` to force the per-tick model
        (used by the fused-vs-tick equivalence tests and the debugger).
        """
        from ..engine import rmt as drivers

        mode = resolve_engine(
            self.engine,
            fused_available=self.description.fused_function is not None,
            tick_accurate=tick_accurate,
            context="pipeline description",
        )
        if mode == ENGINE_TICK:
            return drivers.run_tick(
                self.description, phv_values, self._runtime_values, self._initial_state_copy()
            )
        if mode == ENGINE_GENERIC:
            return drivers.run_generic(
                self.description, phv_values, self._runtime_values, self._initial_state_copy()
            )
        return drivers.run_fused(
            self.description, phv_values, self._runtime_values, self._initial_state_copy()
        )

    def run_traffic(self, generator: TrafficGenerator, count: int) -> SimulationResult:
        """Generate ``count`` random PHVs with ``generator`` and simulate them."""
        if generator.num_containers != self.description.spec.width:
            raise SimulationError(
                f"traffic generator produces {generator.num_containers} containers, "
                f"pipeline width is {self.description.spec.width}"
            )
        return self.run(generator.generate(count))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _initial_state_copy(self) -> Optional[List[List[List[int]]]]:
        if self._initial_state is None:
            return None
        return [[list(alu) for alu in stage] for stage in self._initial_state]


def simulate(
    description,
    phv_values: Sequence[Sequence[int]],
    runtime_values: Optional[Dict[str, int]] = None,
    initial_state: Optional[List[List[List[int]]]] = None,
    engine: str = ENGINE_AUTO,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`RMTSimulator`."""
    simulator = RMTSimulator(
        description,
        runtime_values=runtime_values,
        initial_state=initial_state,
        engine=engine,
    )
    return simulator.run(phv_values)
