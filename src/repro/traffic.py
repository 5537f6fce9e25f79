"""Unified traffic generation for both execution engines.

Both switch architectures are fed by seeded random workload generators:

* the RMT engine consumes *PHV traces* — "the traffic generator creates a
  sequence of PHVs where every PHV consists of random unsigned integers"
  (paper §3.3);
* the dRMT engine consumes *packet traces* — "the dRMT dsim traffic generator
  generates packets with randomly initialized packet field values based on
  the fields specified in the P4 file instead of PHVs" (paper §4.2).

Historically the two generators lived in separate copies under ``dsim`` and
``drmt`` and drifted (different laziness, duplicated field-override helpers,
diverging seed plumbing).  This module is the single home for both; the old
``repro.dsim.traffic`` and ``repro.drmt.traffic`` modules re-export from here
for compatibility.  Seed handling is shared: every generator owns one integer
``seed``, builds a fresh :class:`random.Random` per ``generate``/``iter_*``
call, and is therefore replayable — the fuzzing workflow relies on this to
reproduce counterexamples.

Uniform draws skip :meth:`random.Random.randint`/:meth:`~random.Random.choice`
and run their rejection loop inline: a value below ``n`` is ``getrandbits(k)``
with ``k = n.bit_length()``, redrawn while it is ``>= n``.  That is exactly
what CPython's ``Random._randbelow_with_getrandbits`` does under both
methods, so every seeded trace is the one ``randint``/``choice`` would give
(a test pins the streams), at a fraction of the per-value call overhead.
``n`` and ``k`` are computed once per generator, not once per value.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import SimulationError
from .p4.program import P4Program

#: Default maximum container value: 10-bit unsigned integers (paper §5.2).
DEFAULT_MAX_VALUE = (1 << 10) - 1

#: Field widths above this many bits are capped when drawing random values.
MAX_RANDOM_BITS = 16

#: Signature of a per-field/per-container override: PRNG -> value.
FieldGenerator = Callable[[random.Random], int]


def _draw_span(low: int, high: int) -> Tuple[int, int, int]:
    """``(low, n, k)`` for exact-stream draws from ``[low, high]``.

    A value is ``low + r`` where ``r`` is the first ``getrandbits(k)`` below
    ``n``; this is ``randint(low, high)``'s stream.
    """
    low, high = operator.index(low), operator.index(high)
    n = high - low + 1
    if n <= 0:
        raise SimulationError(f"empty value range [{low}, {high}]")
    return low, n, n.bit_length()


class SeededGenerator:
    """Mixin providing the shared seed handling of both traffic generators.

    Subclasses store an integer ``seed`` attribute; :meth:`fresh_rng` returns
    a new PRNG seeded with it, so repeated ``generate`` calls on one
    generator produce identical sequences (replayability), and two generators
    built with the same parameters agree item for item.
    """

    seed: int

    def fresh_rng(self) -> random.Random:
        """A new PRNG positioned at the start of this generator's sequence."""
        return random.Random(self.seed)

    @staticmethod
    def check_count(count: int) -> None:
        """Validate a requested item count."""
        if count < 0:
            raise SimulationError("count must be non-negative")


@dataclass
class TrafficGenerator(SeededGenerator):
    """Deterministic random PHV generator (RMT engine input).

    Parameters
    ----------
    num_containers:
        Containers per PHV (the pipeline width).
    seed:
        PRNG seed; two generators built with the same parameters produce the
        same sequence, which the fuzzing workflow relies on to replay
        counterexamples.
    min_value, max_value:
        Inclusive bounds of the uniform distribution each container value is
        drawn from.
    field_generators:
        Optional per-container override: a callable taking the PRNG and
        returning the value for that container.  Used by the benchmark
        programs to generate realistic field distributions (e.g. a small set
        of flow identifiers for the flowlet workload).
    """

    num_containers: int
    seed: int = 0
    min_value: int = 0
    max_value: int = DEFAULT_MAX_VALUE
    field_generators: Optional[Sequence[Optional[FieldGenerator]]] = None

    def __post_init__(self) -> None:
        if self.num_containers < 1:
            raise SimulationError("traffic generator needs at least one container")
        if self.min_value > self.max_value:
            raise SimulationError(
                f"invalid value range [{self.min_value}, {self.max_value}]"
            )
        if self.field_generators is not None and len(self.field_generators) != self.num_containers:
            raise SimulationError(
                "field_generators must provide one entry (or None) per container"
            )

    def generate(self, count: int) -> List[List[int]]:
        """Generate ``count`` PHVs worth of container values."""
        return list(self.iter_phvs(count))

    def iter_phvs(self, count: int) -> Iterator[List[int]]:
        """Yield ``count`` PHVs lazily (useful for very long simulations)."""
        self.check_count(count)
        rng = self.fresh_rng()
        getrandbits = rng.getrandbits
        low, n, k = _draw_span(self.min_value, self.max_value)
        generators = self.field_generators or (None,) * self.num_containers
        for _ in range(count):
            values: List[int] = []
            for generator in generators:
                if generator is None:
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    values.append(low + r)
                else:
                    values.append(int(generator(rng)))
            yield values


@dataclass
class PacketGenerator(SeededGenerator):
    """Deterministic random packet generator driven by a P4 program's fields
    (dRMT engine input).

    ``field_overrides`` maps a fully qualified field name to a callable
    ``rng -> value`` so workloads can constrain specific fields (e.g. a small
    set of destination addresses that actually hit installed table entries).
    Metadata fields start at ``metadata_default`` without consuming a PRNG
    draw, like a freshly initialised PHV's metadata containers.
    """

    program: P4Program
    seed: int = 0
    field_overrides: Dict[str, FieldGenerator] = field(default_factory=dict)
    metadata_default: int = 0

    def generate(self, count: int) -> List[Dict[str, int]]:
        """Generate ``count`` packets."""
        return list(self.iter_packets(count))

    def iter_packets(self, count: int) -> Iterator[Dict[str, int]]:
        """Yield ``count`` packets lazily (parity with :meth:`TrafficGenerator.iter_phvs`)."""
        self.check_count(count)
        rng = self.fresh_rng()
        getrandbits = rng.getrandbits
        metadata = self.metadata_default
        plan = self._field_plan()
        for _ in range(count):
            packet: Dict[str, int] = {}
            for qualified, override, n, k in plan:
                if override is not None:
                    packet[qualified] = int(override(rng))
                elif n:
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    packet[qualified] = r
                else:
                    packet[qualified] = metadata
            yield packet

    def _field_plan(self) -> List[Tuple[str, Optional[FieldGenerator], int, int]]:
        """Per field, in packet order: ``(name, override, n, k)``.

        An override is called per packet; otherwise a metadata field
        (``n == 0``) takes ``metadata_default`` without a draw and a header
        field draws below ``n`` in ``k`` bits, i.e. ``randint(0, 2**width - 1)``
        with the width capped at :data:`MAX_RANDOM_BITS`.
        """
        plan = []
        for qualified in self.program.all_fields():
            override = self.field_overrides.get(qualified)
            instance = self.program.headers[qualified.split(".", 1)[0]]
            if override is not None or instance.is_metadata:
                plan.append((qualified, override, 0, 0))
                continue
            width = min(self.program.field_width(qualified), MAX_RANDOM_BITS)
            _low, n, k = _draw_span(0, (1 << width) - 1)
            plan.append((qualified, None, n, k))
        return plan


# ----------------------------------------------------------------------
# Field-generator helpers (shared by both engines)
# ----------------------------------------------------------------------
def uniform_field(low: int, high: int) -> FieldGenerator:
    """Field generator drawing uniformly from ``[low, high]`` (``randint``'s stream)."""
    low, n, k = _draw_span(low, high)

    def draw(rng: random.Random) -> int:
        getrandbits = rng.getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return low + r

    return draw


def choice_field(choices: Sequence[int]) -> FieldGenerator:
    """Field generator drawing uniformly from an explicit set of values.

    Handy for fields such as flow identifiers or ports where a workload only
    exercises a small population (e.g. the stateful-firewall and flowlet
    benchmarks, or dRMT source addresses that hit installed table entries).
    """
    values = [int(choice) for choice in choices]
    if not values:
        raise SimulationError("choice_field needs at least one choice")
    n = len(values)
    k = n.bit_length()

    def draw(rng: random.Random) -> int:
        getrandbits = rng.getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return values[r]

    return draw


def constant_field(value: int) -> FieldGenerator:
    """Field generator always returning ``value`` (e.g. a fixed protocol number)."""
    return lambda rng: int(value)


def values_field(values: Sequence[int]) -> FieldGenerator:
    """Alias of :func:`choice_field` kept for the dRMT engine's historical API."""
    return choice_field(values)
