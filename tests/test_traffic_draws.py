"""The traffic generators draw exactly the ``randint``/``choice`` streams.

:mod:`repro.traffic` runs CPython's ``getrandbits`` rejection loop inline
instead of calling :meth:`random.Random.randint` and
:meth:`random.Random.choice`.  These tests pin the generated values to the
library methods' for many seeds and for the range shapes where a rejection
loop can go wrong: a single value (``n == 1`` still draws one bit), powers
of two (``n.bit_length()`` is one more than the exponent, so about half the
draws are rejected), one past a power of two, 16-bit fields and a range
beyond one 32-bit word.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.p4 import samples
from repro.traffic import (
    MAX_RANDOM_BITS,
    PacketGenerator,
    TrafficGenerator,
    choice_field,
    uniform_field,
)

SEEDS = range(320)
DRAWS = 40

#: (low, high) per range shape; ``n = high - low + 1``.
RANGE_SHAPES = {
    "n=1": (5, 5),
    "n=2": (0, 1),
    "n=2^10": (0, 1023),
    "n=2^10+1": (-3, 1021),
    "n=100": (17, 116),
    "16-bit": (0, (1 << 16) - 1),
    "n=2^40": (0, (1 << 40) - 1),
    "n=2^40+1": (1, (1 << 40) + 1),
}

CHOICE_SIZES = (1, 2, 3, 8, 9, 100, 1 << 16)


@pytest.mark.parametrize("shape", sorted(RANGE_SHAPES))
def test_uniform_field_matches_randint(shape):
    low, high = RANGE_SHAPES[shape]
    draw = uniform_field(low, high)
    for seed in SEEDS:
        rng, reference = random.Random(seed), random.Random(seed)
        assert [draw(rng) for _ in range(DRAWS)] == [
            reference.randint(low, high) for _ in range(DRAWS)
        ], (shape, seed)
        # Both generators consumed the same number of bits.
        assert rng.getrandbits(32) == reference.getrandbits(32)


@pytest.mark.parametrize("size", CHOICE_SIZES)
def test_choice_field_matches_choice(size):
    values = [3 * value + 1 for value in range(size)]
    draw = choice_field(values)
    for seed in SEEDS:
        rng, reference = random.Random(seed), random.Random(seed)
        assert [draw(rng) for _ in range(DRAWS)] == [
            reference.choice(values) for _ in range(DRAWS)
        ], (size, seed)
        assert rng.getrandbits(32) == reference.getrandbits(32)


@pytest.mark.parametrize("shape", sorted(RANGE_SHAPES))
def test_default_containers_match_randint(shape):
    low, high = RANGE_SHAPES[shape]
    for seed in SEEDS:
        generator = TrafficGenerator(num_containers=3, seed=seed, min_value=low, max_value=high)
        reference = random.Random(seed)
        expected = [[reference.randint(low, high) for _ in range(3)] for _ in range(10)]
        assert generator.generate(10) == expected, (shape, seed)


def test_mixed_containers_keep_the_interleaved_stream():
    choices = [1, 2, 3, 4, 5]
    for seed in SEEDS:
        generator = TrafficGenerator(
            num_containers=4,
            seed=seed,
            field_generators=[choice_field(choices), None, uniform_field(7, 300), None],
        )
        reference = random.Random(seed)
        expected = [
            [
                reference.choice(choices),
                reference.randint(0, generator.max_value),
                reference.randint(7, 300),
                reference.randint(0, generator.max_value),
            ]
            for _ in range(8)
        ]
        assert generator.generate(8) == expected, seed


@pytest.mark.parametrize("program", [samples.simple_router, samples.telemetry_pipeline])
def test_packet_fields_match_randint(program):
    p4 = program()
    override_field = next(
        name for name in p4.all_fields() if not p4.headers[name.split(".")[0]].is_metadata
    )
    choices = [10, 20, 30]
    for seed in range(0, 320, 4):
        generator = PacketGenerator(
            p4,
            seed=seed,
            field_overrides={override_field: choice_field(choices)},
            metadata_default=9,
        )
        reference = random.Random(seed)
        expected = []
        for _ in range(5):
            packet = {}
            for name in p4.all_fields():
                if name == override_field:
                    packet[name] = reference.choice(choices)
                elif p4.headers[name.split(".")[0]].is_metadata:
                    packet[name] = 9
                else:
                    width = min(p4.field_width(name), MAX_RANDOM_BITS)
                    packet[name] = reference.randint(0, (1 << width) - 1)
            expected.append(packet)
        assert generator.generate(5) == expected, seed


def test_empty_ranges_are_rejected_up_front():
    with pytest.raises(SimulationError):
        uniform_field(5, 4)
    with pytest.raises(SimulationError):
        choice_field([])
