"""The benchmark's two workloads.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has finished.  A workload object provides

* ``items_per_op`` -- the units of work one operation does (fuzz tests or
  packets), for ``items_per_s``;
* ``setup()`` -- builds every artefact the operations need (programs, machine
  code, descriptions or bundles, parsed table entries) and returns the list of
  *cases*; one round of the loop runs one operation per case;
* ``prepare(case)`` -- untimed per-operation input (a trace), or ``None``;
* ``reference(case, payload)`` -- computes the case's independent reference
  into ``references[case.label]``, once per distinct input, before timing;
* ``run(case, payload)`` -- the timed operation;
* ``check(case, payload, result)`` -- untimed comparison with the reference;
  returns ``None`` when the result is right and a message otherwise.

Inputs are derived from the workload seed only; the program under test sees
nothing but the generated inputs.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro import dgen
from repro.drmt import (
    DRMTSimulator,
    DrmtHardwareParams,
    PacketGenerator,
    generate_bundle,
    parse_entries,
)
from repro.dsim import RMTSimulator, TrafficGenerator
from repro.errors import DruzhbaError
from repro.machine_code.pairs import MachineCode
from repro.p4 import samples
from repro.programs import BenchmarkProgram, all_programs
from repro.testing import FailureClass, FuzzConfig, FuzzTester

#: Per-operation input sizes: the fuzzer's default test length and the dRMT
#: trace length.
FUZZ_PHVS = FuzzConfig().num_phvs
DRMT_PACKETS = 20_000
DRMT_PROCESSORS = 4

#: The same sizes for the self-tests' tiny runs.
TINY_SIZES = {"fuzz_campaign": 50, "drmt_router": 200}

#: Length of the probe trace the negative controls use to pick a fault that
#: changes observable outputs.
PROBE_LENGTH = 200


def case_seeds(workload: str, seed: int, count: int) -> List[int]:
    """Per-case input seeds derived from the workload seed alone."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def relevant_outputs(records, containers: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """The output values of ``containers`` for every trace record."""
    return tuple(tuple(record.outputs[c] for c in containers) for record in records)


def relevant_containers(program: BenchmarkProgram) -> Sequence[int]:
    """The containers a program's specification defines."""
    return program.specification().relevant_containers or range(program.width)


# ----------------------------------------------------------------------
# Negative controls: faults the checks must catch
# ----------------------------------------------------------------------
def flip_one_constant(program: BenchmarkProgram, machine_code: MachineCode) -> MachineCode:
    """The machine code with the first single-bit constant flip that shows.

    A flip in a dead ALU changes nothing a check could see, so candidates
    are tried in pair order until one makes the pipeline disagree with the
    specification on a probe trace.
    """
    pipeline = program.pipeline_spec()
    containers = relevant_containers(program)
    probe = program.traffic_generator(seed=0).generate(PROBE_LENGTH)
    expected = relevant_outputs(program.specification().run(probe).records, containers)
    for name, value in machine_code.items():
        mutated = machine_code.with_pairs({name: value ^ 1})
        try:
            description = dgen.generate(pipeline, mutated, opt_level=dgen.OPT_FUSED)
            result = RMTSimulator(
                description, initial_state=program.initial_pipeline_state()
            ).run(probe)
        except DruzhbaError:
            continue
        if relevant_outputs(result.output_trace.records, containers) != expected:
            return mutated
    raise RuntimeError(f"no single-constant flip of {program.name!r} changes its outputs")


def corrupt_one_entry(bundle, entries: List[Tuple[str, object]]) -> List[Tuple[str, object]]:
    """The table entries with the first action-argument change that shows.

    The corrupted entries go to the simulator under test only; the tick
    reference keeps the original entries.
    """
    probe = PacketGenerator(bundle.program, seed=0).generate(PROBE_LENGTH)
    expected = drmt_fingerprint(
        DRMTSimulator(bundle, table_entries=entries).run_packets(probe, tick_accurate=True)
    )
    for index, (table, entry) in enumerate(entries):
        if not entry.action_args:
            continue
        args = [entry.action_args[0] + 1, *entry.action_args[1:]]
        mutated = list(entries)
        mutated[index] = (table, dataclasses.replace(entry, action_args=args))
        result = DRMTSimulator(bundle, table_entries=mutated).run_packets(probe)
        if drmt_fingerprint(result) != expected:
            return mutated
    raise RuntimeError(f"no single-entry change of {bundle.program.name!r} changes its outputs")


def drmt_fingerprint(result) -> int:
    """Hash of everything the dRMT check compares (references cost no memory)."""
    return hash(
        (
            tuple(tuple(sorted(record.outputs.items())) for record in result.records),
            tuple(record.dropped for record in result.records),
            tuple(sorted(result.table_hits.items())),
            tuple((name, tuple(cells)) for name, cells in sorted(result.register_dump.items())),
        )
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FuzzCase:
    label: str
    program: BenchmarkProgram
    machine_code: MachineCode
    tester: FuzzTester


class FuzzCampaign:
    """The paper's compiler-testing loop (Figure 5): one fuzz test per op.

    Every op is ``FuzzTester.test(machine_code)`` for one (program, seed) at
    opt level 3, engine ``auto``: it regenerates the description, the traffic
    and the specification trace, as the workflow does.
    """

    name = "fuzz_campaign"
    item = "fuzz_tests"

    def __init__(self, seed: int, tiny: bool = False, negative_control: bool = False):
        self.num_phvs = TINY_SIZES[self.name] if tiny else FUZZ_PHVS
        self.items_per_op = 1
        self.negative_control = negative_control
        self.seeds = case_seeds(self.name, seed, len(all_programs()))
        self._faulty: Optional[MachineCode] = None
        self.references: Dict[str, Optional[str]] = {}

    def setup(self) -> List[FuzzCase]:
        cases = []
        for program, seed in zip(all_programs(), self.seeds):
            tester = FuzzTester(
                program.pipeline_spec(),
                program.specification(),
                config=FuzzConfig(num_phvs=self.num_phvs, seed=seed, opt_level=dgen.OPT_FUSED),
                traffic_generator=program.traffic_generator(seed=seed),
                initial_state=program.initial_pipeline_state(),
            )
            label = f"{program.name}/{seed}"
            cases.append(FuzzCase(label, program, program.machine_code(), tester))
        if self.negative_control:
            first = cases[0]
            if self._faulty is None:
                self._faulty = flip_one_constant(first.program, first.machine_code)
            first.machine_code = self._faulty
        return cases

    def prepare(self, case: FuzzCase) -> None:
        return None

    def run(self, case: FuzzCase, payload: None):
        return case.tester.test(case.machine_code)

    def check(self, case: FuzzCase, payload: None, outcome) -> Optional[str]:
        if outcome.failure_class is not FailureClass.CORRECT:
            return f"{case.label}: fuzz test reported {outcome.failure_class.value}"
        if outcome.phvs_tested != self.num_phvs:
            return f"{case.label}: tested {outcome.phvs_tested} of {self.num_phvs} PHVs"
        return self.references[case.label]

    def reference(self, case: FuzzCase, payload: None) -> None:
        """Confirm the verdict with the tick model against the spec, not ``compare_traces``."""
        program, config = case.program, case.tester.config
        base = program.traffic_generator(seed=config.seed)
        # The fuzzer's own traffic: the program's generator capped at the
        # configured maximum value, seeded with the test seed.
        inputs = TrafficGenerator(
            num_containers=base.num_containers,
            seed=config.seed,
            min_value=base.min_value,
            max_value=min(base.max_value, config.max_value),
            field_generators=base.field_generators,
        ).generate(self.num_phvs)
        description = dgen.generate(
            program.pipeline_spec(), case.machine_code, opt_level=config.opt_level
        )
        tick = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(
            inputs, tick_accurate=True
        )
        spec = program.specification().run(inputs)
        containers = relevant_containers(program)
        verdict = None
        if relevant_outputs(tick.output_trace.records, containers) != relevant_outputs(
            spec.records, containers
        ):
            verdict = f"{case.label}: tick model disagrees with the specification"
        self.references[case.label] = verdict


#: The dRMT programs, alternated op by op: LPM/ternary linear scans, then
#: mostly exact-match dict probes.
DRMT_PROGRAMS = (
    ("simple_router", samples.SIMPLE_ROUTER, samples.SIMPLE_ROUTER_ENTRIES),
    ("telemetry_pipeline", samples.TELEMETRY_PIPELINE, samples.TELEMETRY_ENTRIES),
)


@dataclasses.dataclass
class DrmtCase:
    label: str
    seed: int
    bundle: object
    entries: list
    reference_entries: list


class DrmtRouter:
    """dRMT simulation: one fused ``DRMTSimulator.run_packets`` per op.

    A fresh simulator per op starts from empty registers and counters, like
    the tick reference it is checked against.  Each program's packet trace is
    generated once, on first use, outside the timer.
    """

    name = "drmt_router"
    item = "packets"

    def __init__(self, seed: int, tiny: bool = False, negative_control: bool = False):
        self.num_packets = TINY_SIZES[self.name] if tiny else DRMT_PACKETS
        self.items_per_op = self.num_packets
        self.negative_control = negative_control
        self.seeds = case_seeds(self.name, seed, len(DRMT_PROGRAMS))
        self._faulty: Optional[list] = None
        self._traces: Dict[str, List[Dict[str, int]]] = {}
        self.references: Dict[str, int] = {}

    def setup(self) -> List[DrmtCase]:
        hardware = DrmtHardwareParams(num_processors=DRMT_PROCESSORS)
        cases = []
        for index, ((name, source, entries_text), seed) in enumerate(
            zip(DRMT_PROGRAMS, self.seeds)
        ):
            bundle = generate_bundle(source, hardware, name=name)
            bundle.fused_program()
            entries = parse_entries(entries_text, bundle.program)
            tested = entries
            if self.negative_control and index == 0:
                if self._faulty is None:
                    self._faulty = corrupt_one_entry(bundle, entries)
                tested = self._faulty
            cases.append(DrmtCase(f"{name}/{seed}", seed, bundle, tested, entries))
        return cases

    def prepare(self, case: DrmtCase) -> List[Dict[str, int]]:
        if case.label not in self._traces:
            generator = PacketGenerator(case.bundle.program, seed=case.seed)
            self._traces[case.label] = generator.generate(self.num_packets)
        return self._traces[case.label]

    def run(self, case: DrmtCase, packets: List[Dict[str, int]]):
        return DRMTSimulator(case.bundle, table_entries=case.entries).run_packets(packets)

    def check(self, case: DrmtCase, packets: List[Dict[str, int]], result) -> Optional[str]:
        if result.engine != "fused":
            return f"{case.label}: ran the {result.engine} driver, not fused"
        if drmt_fingerprint(result) != self.references[case.label]:
            return f"{case.label}: outputs, drops, hits or registers differ from the tick model"
        return None

    def reference(self, case: DrmtCase, packets: List[Dict[str, int]]) -> None:
        tick = DRMTSimulator(case.bundle, table_entries=case.reference_entries).run_packets(
            packets, tick_accurate=True
        )
        self.references[case.label] = drmt_fingerprint(tick)


WORKLOADS = {cls.name: cls for cls in (FuzzCampaign, DrmtRouter)}
