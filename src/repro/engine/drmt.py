"""dRMT drivers: generic run-to-completion and fused.

The dRMT tick interpreter (:class:`repro.drmt.simulator.DRMTSimulator`'s
per-tick loop) scans every in-flight packet for due operations each cycle;
both drivers here remove that machinery while reusing the same shared table
store and register file:

* :class:`RunToCompletionDriver` — the generic driver: the program's
  scheduled operations are compiled once into per-operation closures
  (argument resolution, register bounds and control-flow gating resolved at
  build time), and every packet runs the closure list to completion in
  arrival order.  This reorders cross-packet register accesses relative to
  the tick model, which is invisible exactly when
  :func:`repro.drmt.fused.run_to_completion_hazard` reports no hazard — the
  driver refuses to build otherwise.
* :func:`run_fused` — hands the packet trace to the bundle's generated
  ``run_trace`` loop (see :mod:`repro.drmt.fused`), which replays the tick
  interpreter's exact interleaving and is therefore faithful for *any*
  program.

Neither driver scans a table: both look entries up through the table's
dict index (:meth:`~repro.drmt.tables.MatchActionTable.mask_groups`, or
``exact_index`` in the fused loop's all-exact case), built once per run so
entries added between runs are seen, with hit/miss counters kept exactly as
:meth:`~repro.drmt.tables.MatchActionTable.lookup` counts them.  Every
driver, the tick interpreter included, runs on the working rows of
:func:`prepare_packets`, so all three see the same ``int`` field values.

Both drivers assemble the same :class:`DrmtSimulationResult` as the tick
interpreter; arrival/completion ticks, processor assignment and operation
counts follow from the round-robin injection discipline (packet ``p`` enters
at tick ``p`` on processor ``p % N`` and completes at tick
``p + makespan - 1``), so the records match the tick model field for field.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..drmt.fused import run_to_completion_hazard
from ..drmt.scheduler import ACTION_OP, MATCH_OP
from ..drmt.simulator import DrmtPacketRecord, DrmtSimulationResult
from ..drmt.tables import probe_groups
from ..errors import SimulationError
from ..p4.program import Action, P4Program

#: Closure signature of one compiled operation: (fields, matched) -> dropped?
OpClosure = Callable[[Dict[str, int], Dict[str, object]], bool]


def prepare_packets(
    packets: Sequence[Dict[str, int]]
) -> Tuple[List[Dict[str, int]], List[Dict[str, int]]]:
    """Copy the input packets and build the integer working rows.

    Every driver injects the working rows, so all of them see the same
    values.  One C-level pass over the value types decides whether any
    value needs ``int`` coercion (bools, floats, int subclasses); when none
    does, the rows are plain copies.
    """
    inputs = list(map(dict, packets))
    if set(map(type, chain.from_iterable(map(dict.values, inputs)))) <= {int}:
        return inputs, list(map(dict, inputs))
    work = [{name: int(value) for name, value in packet.items()} for packet in inputs]
    return inputs, work


def assemble_result(
    bundle,
    tables,
    registers,
    inputs: List[Dict[str, int]],
    work: List[Dict[str, int]],
    dropped: Sequence[bool],
    register_dump_limit: int,
    engine: str,
) -> DrmtSimulationResult:
    """Build the tick-compatible result record for a sequential dRMT run."""
    total = len(inputs)
    makespan = bundle.schedule.makespan
    num_processors = bundle.hardware.num_processors
    completion_offset = makespan - 1 if makespan else 0
    records = [
        DrmtPacketRecord(
            packet_id=packet,
            processor=packet % num_processors,
            arrival_tick=packet,
            completed_tick=packet + completion_offset,
            inputs=inputs[packet],
            outputs=work[packet],
            dropped=bool(dropped[packet]),
        )
        for packet in range(total)
    ]
    per_processor_packets = {
        processor: len(range(processor, total, num_processors))
        for processor in range(num_processors)
    }
    operations = len(bundle.schedule.start_times)
    ticks = 0
    if total:
        ticks = total + completion_offset if makespan else total
    return DrmtSimulationResult(
        records=records,
        ticks=ticks,
        per_processor_packets=per_processor_packets,
        per_processor_operations={
            processor: operations * count
            for processor, count in per_processor_packets.items()
        },
        table_hits=tables.hit_statistics(),
        register_dump={
            name: registers.dump(name, register_dump_limit)
            for name in bundle.program.registers
        },
        engine=engine,
    )


class RunToCompletionDriver:
    """Compiled run-to-completion execution of one dRMT bundle."""

    def __init__(self, bundle, tables, registers):
        hazard = run_to_completion_hazard(bundle.program, bundle.schedule)
        if hazard is not None:
            raise SimulationError(
                f"the generic dRMT driver cannot run this program bit-for-bit: {hazard}; "
                "use the fused or tick engine instead"
            )
        self._operations: List[OpClosure] = []
        #: Matched tables with their mask-group index; refreshed per run so
        #: entries added between runs are picked up (the fused generator
        #: rebuilds its index once per ``run_trace`` call the same way).
        self._indexed_tables: List[Tuple[object, List]] = []
        program = bundle.program
        conditions = {apply.table: apply for apply in program.control_flow}
        ordered = sorted(bundle.schedule.start_times.items(), key=lambda item: item[1])
        arrays = registers.arrays()
        for (table_name, kind), _start in ordered:
            condition = conditions.get(table_name)
            gate: Optional[Tuple[str, int]] = None
            if condition is not None and condition.condition_field is not None:
                gate = (condition.condition_field, condition.condition_value)
            if kind == MATCH_OP:
                self._operations.append(
                    self._compile_match(table_name, tables[table_name], gate)
                )
            elif kind == ACTION_OP:
                self._operations.append(
                    self._compile_action_op(program, table_name, arrays, gate)
                )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, work: Sequence[Dict[str, int]]) -> List[bool]:
        """Run every packet to completion in arrival order; return drop flags."""
        for table, groups_cell in self._indexed_tables:
            groups_cell[0] = table.mask_groups()
        operations = self._operations
        dropped = [False] * len(work)
        for packet, fields in enumerate(work):
            matched: Dict[str, object] = {}
            for operation in operations:
                if operation(fields, matched):
                    dropped[packet] = True
                    break
        return dropped

    # ------------------------------------------------------------------
    # Operation compilation
    # ------------------------------------------------------------------
    def _compile_match(
        self, table_name: str, table, gate: Optional[Tuple[str, int]]
    ) -> OpClosure:
        """One match operation: a walk over the table's mask-group index.

        The probe shares :meth:`MatchActionTable.mask_groups` with the fused
        code generator -- one dict probe per mask group instead of a linear
        scan over the entries -- and keeps the table's hit/miss counters
        exactly as :meth:`MatchActionTable.lookup` would have counted them.
        """
        field_order = tuple(table.definition.match_fields())
        groups_cell: List = [()]  # refreshed at the top of every run()
        self._indexed_tables.append((table, groups_cell))

        def lookup(fields):
            entry = probe_groups(
                groups_cell[0], [fields.get(name, 0) for name in field_order]
            )
            if entry is None:
                table.miss_count += 1
            else:
                table.hit_count += 1
            return entry

        if gate is None:
            def operation(fields, matched):
                matched[table_name] = lookup(fields)
                return False
        else:
            gate_field, gate_value = gate

            def operation(fields, matched):
                if fields.get(gate_field, 0) == gate_value:
                    matched[table_name] = lookup(fields)
                else:
                    matched[table_name] = None
                return False

        return operation

    def _compile_action_op(
        self,
        program: P4Program,
        table_name: str,
        arrays: Dict[str, List[int]],
        gate: Optional[Tuple[str, int]],
    ) -> OpClosure:
        table = program.tables[table_name]
        bodies = {
            name: self._compile_action(program.actions[name], arrays)
            for name in table.actions
        }
        default_body = None
        if table.default_action is not None:
            default_body = self._compile_action(
                program.actions[table.default_action], arrays
            )
        no_args: List[int] = []

        def operation(fields, matched):
            if gate is not None and fields.get(gate[0], 0) != gate[1]:
                return False
            entry = matched.get(table_name)
            if entry is None:
                if default_body is None:
                    return False
                return default_body(fields, no_args)
            return bodies[entry.action](fields, list(entry.action_args))

        return operation

    @staticmethod
    def _compile_action(action: Action, arrays: Dict[str, List[int]]) -> Callable:
        """Compile one action body into a closure over (fields, args)."""
        params = list(action.params)

        def resolver(arg: str) -> Callable:
            if arg in params:
                position = params.index(arg)
                return lambda fields, args: args[position] if position < len(args) else 0
            if "." in arg:
                return lambda fields, args, name=arg: int(fields.get(name, 0))
            try:
                constant = int(arg, 0)
            except ValueError:
                raise SimulationError(f"cannot resolve action argument {arg!r}") from None
            return lambda fields, args: constant

        steps: List[Callable] = []
        for call in action.body:
            op = call.op
            if op == "no_op":
                continue
            if op == "drop":
                steps.append(lambda fields, args: True)
                continue
            if op in ("modify_field", "add_to_field", "subtract_from_field"):
                destination = call.args[0]
                source = resolver(call.args[1])
                if op == "modify_field":
                    def step(fields, args, destination=destination, source=source):
                        fields[destination] = source(fields, args)
                elif op == "add_to_field":
                    def step(fields, args, destination=destination, source=source):
                        fields[destination] = fields.get(destination, 0) + source(fields, args)
                else:
                    def step(fields, args, destination=destination, source=source):
                        fields[destination] = fields.get(destination, 0) - source(fields, args)
                steps.append(step)
                continue
            if op == "register_read":
                destination, register = call.args[0], call.args[1]
                index = resolver(call.args[2])
                array = arrays[register]
                size = len(array)

                def step(fields, args, destination=destination, array=array, size=size, index=index):
                    fields[destination] = array[index(fields, args) % size]

                steps.append(step)
                continue
            if op == "register_write":
                register = call.args[0]
                index = resolver(call.args[1])
                value = resolver(call.args[2])
                array = arrays[register]
                size = len(array)

                def step(fields, args, array=array, size=size, index=index, value=value):
                    array[index(fields, args) % size] = int(value(fields, args))

                steps.append(step)
                continue
            raise SimulationError(f"unsupported primitive {op!r}")  # pragma: no cover

        def run_action(fields, args) -> bool:
            was_dropped = False
            for step in steps:
                if step(fields, args):
                    was_dropped = True
            return was_dropped

        return run_action


def run_fused(
    bundle,
    tables,
    registers,
    work: Sequence[Dict[str, int]],
) -> List[bool]:
    """Execute the bundle's generated fused loop on prepared packet dicts."""
    return bundle.fused_program().run_trace(work, tables.tables, registers.arrays())
