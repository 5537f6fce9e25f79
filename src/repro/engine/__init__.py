"""The unified execution-engine layer.

Both switch architectures of the paper — the RMT pipeline (§3) and dRMT's
run-to-completion processors (§4) — execute compiled programs through the
same three-driver ladder:

* **tick** — the paper's cycle-accurate interpreters (``dsim.Pipeline`` for
  RMT, the round-robin processor loop for dRMT).  Always available; the
  debugger records from this driver.
* **generic** — a sequential driver that loops over the compiled stage /
  processor functions without any per-tick machinery.  Works at every
  optimisation level (it is what speeds up opt levels 0-2 and the fuzzing
  workflow) and produces bit-for-bit the tick driver's results for
  feedforward programs.
* **fused** — the generated ``run_trace`` loop emitted by dgen (RMT opt
  level 3, and the dRMT fused program), where the driver itself is generated
  code.

:func:`repro.engine.base.resolve_engine` implements the selection rules
(``auto`` prefers fused, then generic; ``tick_accurate=True`` always forces
the tick driver; on dRMT, ``auto`` only takes generic when the static hazard
analysis proves it faithful, else tick).  Every driver runs in the calling
process, and every simulator facade —
:class:`repro.dsim.RMTSimulator`, :class:`repro.drmt.DRMTSimulator` and
:class:`repro.engine.rtc.RunToCompletionSimulator` — satisfies the
:class:`~repro.engine.base.ExecutionEngine` protocol: a common
``run(inputs, tick_accurate=False)`` contract returning a simulation result
that names the driver that produced it.
"""

from .base import (
    ENGINE_AUTO,
    ENGINE_CHOICES,
    ENGINE_FUSED,
    ENGINE_GENERIC,
    ENGINE_TICK,
    ExecutionEngine,
    available_engines,
    resolve_engine,
)
from .result import SimulationResult, sequential_result
from .rmt import push_phv, run_stage_loop, stage_pairs
from .rtc import RunToCompletionSimulator

__all__ = [
    "ENGINE_AUTO",
    "ENGINE_TICK",
    "ENGINE_GENERIC",
    "ENGINE_FUSED",
    "ENGINE_CHOICES",
    "ExecutionEngine",
    "available_engines",
    "resolve_engine",
    "SimulationResult",
    "sequential_result",
    "stage_pairs",
    "push_phv",
    "run_stage_loop",
    "RunToCompletionSimulator",
]
