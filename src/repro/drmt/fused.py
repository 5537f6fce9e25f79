"""dRMT fused code generation: the run-to-completion analogue of opt level 3.

RMT descriptions generated at opt level 3 carry a ``run_trace`` loop with
every stage inlined; this module gives a dRMT program bundle the same
treatment.  The generated module contains a ``run_trace(packets, tables,
registers)`` function with every scheduled match and action operation
inlined — action bodies specialised per action (argument resolution, field
arithmetic, register indexing with the instance count baked in) in schedule
order — so the per-tick interpreter machinery (operation scans, packet
contexts, argument re-parsing) disappears from the hot path.

Bit-for-bit fidelity to the tick interpreter is preserved *exactly*, not
just for well-behaved programs: the generated loop replays the interpreter's
global execution order.  In the tick model, packet ``p`` (injected at tick
``p``, processor ``p % N``) executes the operations scheduled at relative
cycle ``c`` at global tick ``p + c``, and within one tick the processors
run in id order with each processor's packets in arrival order.  For a fixed
schedule that order depends only on ``t % N``, so dgen precomputes one
cycle visit order per residue (``VISIT_ORDERS``) and the generated loop
walks ticks executing the inlined per-cycle segments in precisely the
interpreter's interleaving — shared registers observe the identical sequence
of reads and writes.

No match runs :meth:`MatchActionTable.lookup`'s linear scan.  The
generated prologue builds each table's dict index once per trace: the
:meth:`~repro.drmt.tables.MatchActionTable.exact_index` of an all-exact
table, whose match is a single dict probe, and otherwise the
:meth:`~repro.drmt.tables.MatchActionTable.mask_groups` of a ternary, LPM
or mixed table, walked by a generated module-level ``probe_<table>(groups,
fields)`` function specialised to the table's arity (one dict probe per mask
group, stopping once the best hit outranks every later group).  Hit/miss
counts are accumulated in locals and folded back into the table's counters
on exit, so the observable statistics stay identical to the interpreter's.

A second entry point, ``run_trace_observed``, additionally calls
``observer(packet_id, processor, tick, fields)`` after every (packet,
cycle-segment) execution: the per-processor snapshot hook that lets
debugging tools watch what the production fast path computes.  It is
generated into the program's namespace the first time
:attr:`DrmtFusedProgram.run_trace_observed` is read, and is not part of
:attr:`DrmtFusedProgram.source`.

:func:`run_to_completion_hazard` is the static analysis used by the
*generic* (non-generated) run-to-completion driver in
:mod:`repro.engine.drmt`: plain per-packet run-to-completion reorders
cross-packet register accesses unless every access to a given register is
launched at a single schedule cycle, and the analysis reports the registers
for which that fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..dgen.optimize.peephole import peephole_block
from ..errors import CodegenError
from ..ir import nodes as ir
from ..ir.printer import to_source
from ..p4.program import Action, P4Program, Table
from .scheduler import ACTION_OP, MATCH_OP, Operation, Schedule

#: Names of the generated entry points.
RUN_TRACE_FUNCTION_NAME = "run_trace"
RUN_TRACE_OBSERVED_FUNCTION_NAME = "run_trace_observed"


def _ident(name: str) -> str:
    """Sanitise a P4 name into an identifier fragment."""
    return re.sub(r"\W", "_", name)


def _ordered_operations(schedule: Schedule) -> List[Tuple[Operation, int]]:
    """Operations with start cycles, in the interpreter's per-cycle order.

    ``MatchActionProcessor`` executes the operations due at one cycle in
    ``Schedule.operations_at`` order, which is the insertion order of
    ``start_times``; a stable sort by start cycle preserves it.
    """
    return sorted(schedule.start_times.items(), key=lambda item: item[1])


def _segments(schedule: Schedule) -> Dict[int, List[Operation]]:
    """Group operations by start cycle, preserving per-cycle order."""
    segments: Dict[int, List[Operation]] = {}
    for op, start in _ordered_operations(schedule):
        segments.setdefault(start, []).append(op)
    return segments


def visit_orders(schedule: Schedule, num_processors: int) -> List[Tuple[int, ...]]:
    """Per-``tick % N`` order in which active cycles must be visited.

    At tick ``t`` the in-flight packet executing cycle ``c`` is ``p = t - c``
    on processor ``p % N``; the interpreter visits processors in id order and
    each processor's packets in arrival order, so the cycles sort by
    ``(p % N, p)`` — which, for fixed ``t``, depends only on ``t % N``.
    """
    active = sorted(_segments(schedule))
    orders: List[Tuple[int, ...]] = []
    for residue in range(num_processors):
        orders.append(
            tuple(sorted(active, key=lambda c: ((residue - c) % num_processors, -c)))
        )
    return orders


# ----------------------------------------------------------------------
# Static analysis
# ----------------------------------------------------------------------
def _table_register_cycles(program: P4Program, schedule: Schedule) -> Dict[str, Set[int]]:
    """Map each register to the set of schedule cycles that may access it."""
    touches: Dict[str, Set[int]] = {}
    for (table_name, kind), start in schedule.start_times.items():
        if kind != ACTION_OP:
            continue
        table = program.tables[table_name]
        action_names = list(table.actions)
        if table.default_action is not None:
            action_names.append(table.default_action)
        for action_name in action_names:
            action = program.actions.get(action_name)
            if action is None:
                continue
            for call in action.body:
                if call.op == "register_read":
                    touches.setdefault(call.args[1], set()).add(start)
                elif call.op == "register_write":
                    touches.setdefault(call.args[0], set()).add(start)
    return touches


def run_to_completion_hazard(program: P4Program, schedule: Schedule) -> Optional[str]:
    """Why plain run-to-completion would diverge from the tick model, if at all.

    Packet-local state (fields, matched entries) is order-insensitive; only
    the shared registers can observe the difference between the tick model's
    cross-packet interleaving and per-packet run-to-completion.  When every
    access to a register launches at one schedule cycle, the accesses hit the
    register in packet arrival order under both execution orders; otherwise a
    later packet's early-cycle access can overtake an earlier packet's
    late-cycle access in the tick model, and run-to-completion is unsafe.

    Returns a human-readable reason, or ``None`` when run-to-completion is
    bit-for-bit faithful.
    """
    for register, cycles in sorted(_table_register_cycles(program, schedule).items()):
        if len(cycles) > 1:
            return (
                f"register {register!r} is accessed by operations launched at cycles "
                f"{sorted(cycles)}; the tick model interleaves those accesses across "
                "packets, which run-to-completion order cannot reproduce"
            )
    return None


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
class DrmtFusedGenerator:
    """Generates the fused module for one program bundle."""

    def __init__(self, program: P4Program, schedule: Schedule, num_processors: int):
        if num_processors < 1:
            raise CodegenError("dRMT fused generation needs at least one processor")
        self.program = program
        self.schedule = schedule
        self.num_processors = num_processors
        self._conditions = {apply.table: apply for apply in program.control_flow}

    # ------------------------------------------------------------------
    # Module assembly
    # ------------------------------------------------------------------
    def generate(self) -> ir.Module:
        """Build the fused dRMT module: the table probes and ``run_trace``."""
        schedule = self.schedule
        module = ir.Module(
            docstring=(
                f"Fused dRMT program for {self.program.name!r} generated by dgen.\n\n"
                f"makespan={schedule.makespan} cycles, "
                f"{self.num_processors} processors, "
                f"{len(schedule.start_times)} scheduled operations; the trace loop "
                "replays the tick interpreter's exact cross-packet interleaving."
            ),
            globals=[
                ir.Assign("PROGRAM_NAME", repr(self.program.name)),
                ir.Assign("MAKESPAN", str(schedule.makespan)),
                ir.Assign("NUM_PROCESSORS", str(self.num_processors)),
                ir.Assign("NUM_OPERATIONS", str(len(schedule.start_times))),
                ir.Assign(
                    "VISIT_ORDERS",
                    repr(tuple(visit_orders(schedule, self.num_processors))),
                ),
            ],
        )
        probed = [name for name in self.program.table_order() if not self._is_exact(name)]
        if probed:
            module.globals.append(ir.Assign("NO_HIT", "(-1, None)"))
        module.functions.extend(self._probe_function(name) for name in probed)
        module.functions.append(self._run_trace_function(observed=False))
        module.trailer.append(ir.Assign("RUN_TRACE", RUN_TRACE_FUNCTION_NAME))
        return module

    def generate_observed(self) -> ir.Module:
        """Build ``run_trace_observed``; it runs in the namespace of :meth:`generate`'s module."""
        module = ir.Module()
        module.functions.append(self._run_trace_function(observed=True))
        module.trailer.append(
            ir.Assign("RUN_TRACE_OBSERVED", RUN_TRACE_OBSERVED_FUNCTION_NAME)
        )
        return module

    def _probe_function(self, table_name: str) -> ir.FunctionDef:
        """``probe_<table>(groups, fields)``: the table's lookup as dict probes.

        An arity-specialised copy of :func:`repro.drmt.tables.probe_groups`
        over :meth:`~repro.drmt.tables.MatchActionTable.mask_groups`: each
        group is one probe, and the walk returns as soon as the best hit so
        far outranks the next group's bound.
        """
        match_fields = self.program.tables[table_name].match_fields()
        arity = len(match_fields)
        body: List[ir.IRStmt] = [
            ir.Assign(f"v{index}", f"fields.get({field!r}, 0)")
            for index, field in enumerate(match_fields)
        ]
        masked = [f"v{index} & m{index}" for index in range(arity)]
        key = masked[0] if arity == 1 else "(" + ", ".join(masked) + ")"
        masks = ", ".join(f"m{index}" for index in range(arity))
        body.append(ir.Assign("rank", "-1"))
        body.append(ir.Assign("best", "None"))
        body.append(
            ir.For(
                f"bound, {masks}, index",
                "groups",
                [
                    ir.If(branches=[("rank > bound", [ir.Return("best")])], orelse=[]),
                    ir.Assign("hit", f"index.get({key}, NO_HIT)"),
                    ir.If(
                        branches=[("hit[0] > rank", [ir.Assign("rank, best", "hit")])],
                        orelse=[],
                    ),
                ],
            )
        )
        body.append(ir.Return("best"))
        return ir.FunctionDef(
            name=f"probe_{_ident(table_name)}",
            params=["groups", "fields"],
            body=body,
            docstring=(
                f"The entry tables[{table_name!r}].lookup(fields) returns, "
                "probed through its mask_groups() index."
            ),
        )

    def _run_trace_function(self, observed: bool) -> ir.FunctionDef:
        """``run_trace`` or, with ``observed``, its snapshot-hook twin."""
        segments = _segments(self.schedule)
        body: List[ir.IRStmt] = []
        body.append(ir.Assign("n", "len(packets)"))
        body.append(ir.Assign("dropped", "[False] * n"))
        if segments:
            body.append(
                ir.If(branches=[("n == 0", [ir.Return("dropped")])], orelse=[])
            )
            body.append(ir.Comment("hoist table indexes, match results and register arrays"))
            for table_name in self.program.table_order():
                # Build the table's dict index once per trace, count hits
                # and misses locally, and fold them back into the table's
                # counters on exit (identical totals to the linear scan).
                safe = _ident(table_name)
                index = "exact_index" if self._is_exact(table_name) else "mask_groups"
                body.append(ir.Assign(f"table_{safe}", f"tables[{table_name!r}]"))
                body.append(ir.Assign(f"index_{safe}", f"table_{safe}.{index}()"))
                body.append(ir.Assign(f"hits_{safe}", "0"))
                body.append(ir.Assign(f"misses_{safe}", "0"))
                body.append(ir.Assign(f"matched_{safe}", "[None] * n"))
            for register_name in self.program.registers:
                body.append(
                    ir.Assign(f"reg_{_ident(register_name)}", f"registers[{register_name!r}]")
                )
            loop_body = self._tick_loop_body(segments, observed)
            tick_loop = ir.For("t", "range(n + MAKESPAN - 1)", peephole_block(loop_body))
            body.append(tick_loop)
            for table_name in self.program.table_order():
                safe = _ident(table_name)
                body.append(
                    ir.Assign(f"table_{safe}.hit_count", f"table_{safe}.hit_count + hits_{safe}")
                )
                body.append(
                    ir.Assign(
                        f"table_{safe}.miss_count", f"table_{safe}.miss_count + misses_{safe}"
                    )
                )
        body.append(ir.Return("dropped"))
        params = ["packets", "tables", "registers"]
        if observed:
            params.append("observer")
        return ir.FunctionDef(
            name=RUN_TRACE_OBSERVED_FUNCTION_NAME if observed else RUN_TRACE_FUNCTION_NAME,
            params=params,
            body=body,
            docstring=(
                "Fused dRMT trace loop: walk global ticks and execute the inlined "
                "per-cycle operation segments in the tick interpreter's exact "
                "packet/processor interleaving.  Mutates the packet field dicts and "
                "register arrays in place and returns the per-packet dropped flags."
                + (
                    "  Calls observer(packet_id, processor, tick, fields) after every "
                    "(packet, cycle) execution; the hook receives the live field dict."
                    if observed
                    else ""
                )
            ),
        )

    def _tick_loop_body(
        self, segments: Dict[int, List[Operation]], observed: bool
    ) -> List[ir.IRStmt]:
        dispatch: List[Tuple[str, List[ir.IRStmt]]] = []
        for cycle in sorted(segments):
            stmts = self._segment_stmts(segments[cycle])
            if observed:
                stmts.append(
                    ir.ExprStmt("observer(p, p % NUM_PROCESSORS, t, fields)")
                )
            dispatch.append((f"c == {cycle}", stmts))
        inner: List[ir.IRStmt] = [
            ir.Assign("p", "t - c"),
            ir.If(
                branches=[
                    (
                        "0 <= p < n and not dropped[p]",
                        [
                            ir.Assign("fields", "packets[p]"),
                            ir.If(branches=dispatch, orelse=[]),
                        ],
                    )
                ],
                orelse=[],
            ),
        ]
        return [ir.For("c", "VISIT_ORDERS[t % NUM_PROCESSORS]", inner)]

    # ------------------------------------------------------------------
    # Per-operation emission
    # ------------------------------------------------------------------
    def _enabled_condition(self, table_name: str) -> Optional[str]:
        condition = self._conditions.get(table_name)
        if condition is None or condition.condition_field is None:
            return None
        return (
            f"fields.get({condition.condition_field!r}, 0) == {condition.condition_value}"
        )

    def _may_drop(self, table_name: str) -> bool:
        table = self.program.tables[table_name]
        action_names = list(table.actions)
        if table.default_action is not None:
            action_names.append(table.default_action)
        for action_name in action_names:
            action = self.program.actions.get(action_name)
            if action is not None and any(call.op == "drop" for call in action.body):
                return True
        return False

    def _segment_stmts(self, operations: Sequence[Operation]) -> List[ir.IRStmt]:
        """One cycle's operations; later ops re-check the drop flag when needed."""
        stmts: List[ir.IRStmt] = []
        drop_possible = False
        for table_name, kind in operations:
            if kind == MATCH_OP:
                op_stmts = self._match_stmts(table_name)
            else:
                op_stmts = self._action_stmts(table_name)
            if drop_possible:
                op_stmts = [
                    ir.If(branches=[("not dropped[p]", op_stmts)], orelse=[])
                ]
            stmts.extend(op_stmts)
            if kind == ACTION_OP and self._may_drop(table_name):
                drop_possible = True
        return stmts

    def _is_exact(self, table_name: str) -> bool:
        """True when the table definition admits the dict specialisation."""
        return self.program.tables[table_name].is_exact

    def _match_stmts(self, table_name: str) -> List[ir.IRStmt]:
        safe = _ident(table_name)
        if self._is_exact(table_name):
            match_fields = self.program.tables[table_name].match_fields()
            key = (
                "(" + ", ".join(f"fields.get({field!r}, 0)" for field in match_fields) + ",)"
                if match_fields
                else "()"
            )
            probe = f"index_{safe}.get({key})"
        else:
            probe = f"probe_{safe}(index_{safe}, fields)"
        lookup_stmts: List[ir.IRStmt] = [
            ir.Assign("_entry", probe),
            ir.Assign(f"matched_{safe}[p]", "_entry"),
            ir.If(
                branches=[("_entry is None", [ir.Assign(f"misses_{safe}", f"misses_{safe} + 1")])],
                orelse=[ir.Assign(f"hits_{safe}", f"hits_{safe} + 1")],
            ),
        ]
        condition = self._enabled_condition(table_name)
        if condition is None:
            return lookup_stmts
        return [
            ir.If(
                branches=[(condition, lookup_stmts)],
                orelse=[ir.Assign(f"matched_{safe}[p]", "None")],
            )
        ]

    def _action_stmts(self, table_name: str) -> List[ir.IRStmt]:
        table = self.program.tables[table_name]
        safe = _ident(table_name)
        hit_body: List[ir.IRStmt] = [ir.Assign("entry", f"matched_{safe}[p]")]
        dispatch = self._action_dispatch(table)
        miss_body: List[ir.IRStmt] = []
        if table.default_action is not None:
            miss_body = self._action_body(
                self.program.actions[table.default_action], entry_args=False
            )
        inner = [
            ir.If(branches=[("entry is not None", dispatch)], orelse=miss_body)
        ]
        stmts = hit_body + inner
        condition = self._enabled_condition(table_name)
        if condition is None:
            return stmts
        return [ir.If(branches=[(condition, stmts)], orelse=[])]

    def _action_dispatch(self, table: Table) -> List[ir.IRStmt]:
        """Dispatch over the actions a matched entry may invoke."""
        action_names = list(table.actions)
        if len(action_names) == 1:
            return self._action_body(
                self.program.actions[action_names[0]], entry_args=True
            )
        branches: List[Tuple[str, List[ir.IRStmt]]] = []
        stmts: List[ir.IRStmt] = [ir.Assign("_name", "entry.action")]
        for action_name in action_names:
            body = self._action_body(self.program.actions[action_name], entry_args=True)
            branches.append((f"_name == {action_name!r}", body or [ir.Pass()]))
        stmts.append(ir.If(branches=branches, orelse=[]))
        return stmts

    def _action_body(self, action: Action, entry_args: bool) -> List[ir.IRStmt]:
        """Inline one action: bind used parameters, then its primitive calls."""
        used_params = {
            arg for call in action.body for arg in call.args if arg in action.params
        }
        bindings: Dict[str, str] = {}
        stmts: List[ir.IRStmt] = []
        if entry_args and used_params:
            stmts.append(ir.Assign("_args", "entry.action_args"))
        for index, param in enumerate(action.params):
            if param not in used_params:
                continue
            if entry_args:
                local = f"_a{index}"
                stmts.append(
                    ir.Assign(local, f"_args[{index}] if len(_args) > {index} else 0")
                )
                bindings[param] = local
            else:
                # A default action runs with no entry arguments: every
                # parameter binds to 0, as in the interpreter.
                bindings[param] = "0"

        for call in action.body:
            stmts.extend(self._primitive_stmts(call, bindings))
        return stmts

    def _primitive_stmts(self, call, bindings: Dict[str, str]) -> List[ir.IRStmt]:
        op = call.op
        if op == "no_op":
            return []
        if op == "drop":
            return [ir.Assign("dropped[p]", "True")]
        if op == "modify_field":
            destination, source = call.args[0], call.args[1]
            return [ir.Assign(f"fields[{destination!r}]", self._value(source, bindings))]
        if op == "add_to_field":
            destination, source = call.args[0], call.args[1]
            return [
                ir.Assign(
                    f"fields[{destination!r}]",
                    f"fields.get({destination!r}, 0) + ({self._value(source, bindings)})",
                )
            ]
        if op == "subtract_from_field":
            destination, source = call.args[0], call.args[1]
            return [
                ir.Assign(
                    f"fields[{destination!r}]",
                    f"fields.get({destination!r}, 0) - ({self._value(source, bindings)})",
                )
            ]
        if op == "register_read":
            destination, register, index_arg = call.args[0], call.args[1], call.args[2]
            return [
                ir.Assign(
                    f"fields[{destination!r}]", self._register_cell(register, index_arg, bindings)
                )
            ]
        if op == "register_write":
            register, index_arg, value_arg = call.args[0], call.args[1], call.args[2]
            return [
                ir.Assign(
                    self._register_cell(register, index_arg, bindings),
                    self._value(value_arg, bindings),
                )
            ]
        raise CodegenError(f"unsupported primitive {op!r}")  # pragma: no cover - validated upstream

    def _register_cell(self, register: str, index_arg: str, bindings: Dict[str, str]) -> str:
        declaration = self.program.registers.get(register)
        if declaration is None:
            raise CodegenError(f"unknown register {register!r}")
        size = declaration.instance_count
        return f"reg_{_ident(register)}[({self._value(index_arg, bindings)}) % {size}]"

    def _value(self, arg: str, bindings: Dict[str, str]) -> str:
        """Source fragment for one action argument (the interpreter's ``_resolve``)."""
        if arg in bindings:
            return bindings[arg]
        if "." in arg:
            return f"fields.get({arg!r}, 0)"
        try:
            return str(int(arg, 0))
        except ValueError:
            raise CodegenError(f"cannot resolve action argument {arg!r}") from None


@dataclass
class DrmtFusedProgram:
    """A compiled fused dRMT program plus its provenance.

    ``module``, ``source`` and ``namespace`` hold the production module:
    the table probes and ``run_trace``.  The observed twin is generated
    into the same namespace the first time :attr:`run_trace_observed` is
    read, so programs that are only run never pay for it.
    """

    module: ir.Module
    source: str
    namespace: Dict[str, object]
    hazard: Optional[str]
    generator: DrmtFusedGenerator = field(repr=False, compare=False)

    @property
    def run_trace(self) -> Callable:
        """The generated ``run_trace(packets, tables, registers)`` entry point."""
        return self.namespace["RUN_TRACE"]  # type: ignore[return-value]

    @property
    def run_trace_observed(self) -> Callable:
        """The observed variant (per-processor snapshot hooks), built on first use."""
        if "RUN_TRACE_OBSERVED" not in self.namespace:
            _exec_module(self.generator.generate_observed(), self.namespace, "_observed")
        return self.namespace["RUN_TRACE_OBSERVED"]  # type: ignore[return-value]

    def source_line_count(self) -> int:
        """Number of non-blank source lines (the Figure 6 code-size metric)."""
        return sum(1 for line in self.source.splitlines() if line.strip())


def _exec_module(module: ir.Module, namespace: Dict[str, object], suffix: str = "") -> str:
    """Render ``module``, run it in ``namespace`` and return its source."""
    source = to_source(module)
    code = compile(source, filename=f"<{namespace['__name__']}{suffix}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - executing our own generated code is the point of dgen
    return source


def generate_fused(
    program: P4Program,
    schedule: Schedule,
    num_processors: int,
    module_name: str = "druzhba_drmt_fused_program",
) -> DrmtFusedProgram:
    """Generate, render, compile and wrap the fused program for one bundle."""
    generator = DrmtFusedGenerator(program, schedule, num_processors)
    module = generator.generate()
    namespace: Dict[str, object] = {"__name__": module_name}
    fused = DrmtFusedProgram(
        module=module,
        source=_exec_module(module, namespace),
        namespace=namespace,
        hazard=run_to_completion_hazard(program, schedule),
        generator=generator,
    )
    if not callable(fused.run_trace):
        raise CodegenError("fused dRMT generation produced no callable run_trace")
    return fused
