"""Run one benchmark workload and report its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload drmt_router --seed 1 --seconds 55 --trace 0

Every workload is a closed loop with one client, run with the garbage
collector on.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
first runs the loop untraced for half the time, then installs the span
wrappers (see ``tracing.py``) and runs the same number of rounds traced, and
reports per-layer metrics per operation plus the tracing overhead.

Every metric is printed as ``name value unit n=samples``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any operation failed its
check.  ``--tiny`` shrinks every input for the self-tests, and
``--negative-control`` plants a fault the checks must report.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: p90 needs ten samples beyond it.
MIN_OPS = 100
#: Set-up runs once before the loop and again between rounds, about this
#: many times spread over the run, so that its median sees the same machine
#: as the operations do; at least SETUP_MIN_REPEATS times in all.
SETUP_SAMPLES = 30
SETUP_MIN_REPEATS = 5
#: Failures whose details are printed to standard error.
SHOWN_FAILURES = 5

#: The end-to-end metrics of the untraced run, with their units.  Op-time
#: percentiles are printed but are not end-to-end metrics: on a shared host
#: the CPU's speed can flip every few seconds between two levels (about 1.6x
#: apart on a 2-vCPU cloud VM), and a percentile of fuzz_campaign's mix of
#: programs lands on either level depending on their shares in the run, so it
#: moved by up to 0.3 of itself between runs of the same code.  The mean
#: behind ``items_per_s`` moves only in proportion to the shares.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: The per-layer metrics of the traced run, with their units.  Times are self
#: times and counts are totals, both per operation; ``setup.*`` come from one
#: traced set-up.
PER_LAYER = {
    "dgen.generate_module_s": "s",
    "dgen.compile_description_s": "s",
    "dgen.calls": "count",
    "dgen.source_lines": "count",
    "traffic.generate_s": "s",
    "traffic.items": "count",
    "testing.spec_run_s": "s",
    "testing.compare_traces_s": "s",
    "dsim.run_s": "s",
    "engine.rmt.prepare_inputs_s": "s",
    "engine.rmt.run_trace_s": "s",
    "engine.result.sequential_result_s": "s",
    "engine.rmt.phvs": "count",
    "drmt.fused_program_s": "s",
    "drmt.run_packets_s": "s",
    "engine.drmt.prepare_packets_s": "s",
    "engine.drmt.run_fused_s": "s",
    "engine.drmt.assemble_result_s": "s",
    "drmt.tables.lookup_calls": "count",
    "drmt.tables.lookup_s": "s",
    "drmt.tables.hit_ratio": "ratio",
    "gc.collections": "count",
    "gc.gen2_collections": "count",
    "gc.pause_s": "s",
    "op.other_s": "s",
    "setup.dgen_s": "s",
    "setup.drmt.fused_program_s": "s",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, one round at least")
    parser.add_argument(
        "--negative-control",
        action="store_true",
        help="plant a fault (flipped machine-code constant or corrupted table entry)",
    )
    return parser.parse_args(argv)


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile: ``ceil(fraction * n)`` samples lie at or below it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """The closed measurement loop: whole rounds, one op per case."""

    def __init__(self, workload, cases):
        self.workload = workload
        self.cases = cases
        self.samples = []
        self.items = 0
        self.failed = 0
        self.setups = []

    def time_setup(self) -> None:
        """Time one more set-up, discard it and collect its garbage."""
        self.setups.append(time_setup(self.workload)[1])
        gc.collect()

    def run(self, rounds=None, seconds=0.0, min_ops=0, tracer=None, setup_every=None) -> int:
        """Run whole rounds: ``rounds`` of them, or until time and op count suffice.

        References are computed first, and a full collection runs before the
        clock starts, so every round sees the same heap.  With
        ``setup_every`` seconds, set-up is timed again between rounds.
        """
        workload = self.workload
        for case in self.cases:
            if case.label not in workload.references:
                workload.reference(case, workload.prepare(case))
        gc.collect()
        start = last_setup = time.perf_counter()
        done = 0
        while True:
            for case in self.cases:
                payload = workload.prepare(case)
                error, result, elapsed = None, None, 0.0
                try:
                    if tracer is None:
                        began = time.perf_counter()
                        result = workload.run(case, payload)
                        elapsed = time.perf_counter() - began
                    else:
                        op_id = len(self.samples)
                        result, elapsed = tracer.op(
                            op_id, case.label, lambda: workload.run(case, payload)
                        )
                except Exception:  # the loop must go on: count the op as failed
                    error = traceback.format_exc()
                if error is None:
                    try:
                        error = workload.check(case, payload, result)
                    except Exception:
                        error = traceback.format_exc()
                self.samples.append(elapsed)
                self.items += workload.items_per_op
                if error is not None:
                    self.failed += 1
                    if self.failed <= SHOWN_FAILURES:
                        print(f"FAILED op {len(self.samples) - 1}: {error}", file=sys.stderr)
                del payload, result
            done += 1
            now = time.perf_counter()
            if rounds is not None:
                if done >= rounds:
                    return done
            elif now - start >= seconds and len(self.samples) >= min_ops:
                return done
            if setup_every is not None and now - last_setup >= setup_every:
                self.time_setup()
                last_setup = time.perf_counter()


def time_setup(workload):
    """Run set-up once; return its cases and its duration."""
    began = time.perf_counter()
    cases = workload.setup()
    return cases, time.perf_counter() - began


def measure(workload, args) -> tuple:
    """The untraced run: end-to-end metrics as (value, unit, samples), plus the
    op-time percentiles, which are only printed."""
    cases, first_setup = time_setup(workload)
    loop = Loop(workload, cases)
    loop.setups.append(first_setup)
    if args.tiny:
        loop.run(seconds=args.seconds)
    else:
        loop.run(seconds=args.seconds, min_ops=MIN_OPS, setup_every=args.seconds / SETUP_SAMPLES)
        while len(loop.setups) < SETUP_MIN_REPEATS:
            loop.time_setup()
    n = len(loop.samples)
    metrics = {
        "setup_s": (statistics.median(loop.setups), len(loop.setups)),
        "items_per_s": (loop.items / sum(loop.samples), n),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    metrics = {name: (value, END_TO_END[name], count) for name, (value, count) in metrics.items()}
    shown = {
        "op_p50_ms": (statistics.median(loop.samples) * 1e3, "ms", n),
        "op_p90_ms": (percentile(loop.samples, 0.9) * 1e3, "ms", n),
    }
    return len(loop.samples), loop.failed, metrics, shown


def measure_traced(workload, args) -> tuple:
    """The traced run: per-layer metrics per operation, plus tracing overhead."""
    from tracing import SETUP, Tracer

    cases, _ = time_setup(workload)
    untraced = Loop(workload, cases)
    rounds = untraced.run(seconds=args.seconds / 2)

    tracer = Tracer()
    tracer.install()
    try:
        cases, _ = tracer.op(SETUP, SETUP, workload.setup)
        traced = Loop(workload, cases)
        traced.run(rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    ops = len(traced.samples)
    totals = tracer.totals(in_setup=False)
    setup = tracer.totals(in_setup=True)
    metrics = {name: totals[name] / ops for name in PER_LAYER}
    lookups = totals["drmt.tables.lookups"]
    metrics["drmt.tables.hit_ratio"] = totals["drmt.tables.hits"] / lookups if lookups else 0.0
    metrics["setup.dgen_s"] = setup["dgen.generate_module_s"] + setup["dgen.compile_description_s"]
    metrics["setup.drmt.fused_program_s"] = setup["drmt.fused_program_s"]
    untraced_mean = sum(untraced.samples) / len(untraced.samples)
    metrics["trace.op_s"] = sum(traced.samples) / ops
    metrics["trace.overhead_ratio"] = metrics["trace.op_s"] / untraced_mean - 1

    print_accounting(tracer)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    attempted = len(untraced.samples) + ops
    metrics = {name: (metrics[name], PER_LAYER[name], ops) for name in PER_LAYER}
    return attempted, untraced.failed + traced.failed, metrics, {}


def print_accounting(tracer) -> None:
    """Per case: mean op time and the layers that take most of it."""
    from tracing import OP, SETUP, layer_of

    by_case = {}
    for (op_id, name), seconds in tracer.self_times().items():
        if op_id != SETUP:
            layers = by_case.setdefault(tracer.labels[op_id], {})
            layer = "op.other" if name == OP else layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + seconds
    ops = {}
    for op_id, label in tracer.labels.items():
        if op_id != SETUP:
            ops[label] = ops.get(label, 0) + 1
    print("layer self time by case (share of traced op time):")
    for label, layers in by_case.items():
        total = sum(layers.values())
        top = sorted(layers.items(), key=lambda item: -item[1])[:4]
        shares = ", ".join(f"{layer} {seconds / total:.0%}" for layer, seconds in top)
        print(f"  {label}: {total / ops[label] * 1e3:.1f} ms/op; {shares}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](
        args.seed, tiny=args.tiny, negative_control=args.negative_control
    )
    attempted, failed, metrics, shown = (measure_traced if args.trace else measure)(workload, args)

    print(f"workload {workload.name}: {attempted} ops, {failed} failed, item = {workload.item}")
    for name, (value, unit, count) in {**metrics, **shown}.items():
        print(f"{name} {value:.6g} {unit} n={count}")
    print(f"failed_ratio {failed / attempted:.6g} ratio n={attempted}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
