"""Time-travel debugging for Druzhba pipeline simulations (paper §7 future work).

Record a simulation tick by tick, then move a cursor forwards and backwards
through it, set breakpoints on container or state values, and trace the
per-stage journey of any PHV.
"""

from .recorder import (
    ExecutionRecording,
    StageOccupancy,
    TickSnapshot,
    record_execution,
)
from .session import (
    Breakpoint,
    TimeTravelDebugger,
    container_breakpoint,
    phv_exit_breakpoint,
    state_breakpoint,
)

__all__ = [
    "record_execution",
    "ExecutionRecording",
    "TickSnapshot",
    "StageOccupancy",
    "TimeTravelDebugger",
    "Breakpoint",
    "state_breakpoint",
    "container_breakpoint",
    "phv_exit_breakpoint",
]
