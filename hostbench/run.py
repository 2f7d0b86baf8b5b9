#!/usr/bin/env python3
"""Host-time benchmark of the PolarFly reproduction.

Run from the root of a checkout::

    python3 hostbench/run.py --workload q7-sweeps --seed 1 --seconds 60 --trace 0

``--trace 0`` times whole batches of cells and prints the end-to-end
metrics; ``--trace 1`` runs serial units alternately with and without
span tracing and prints the per-layer metrics.  Every cell's simulated
output is checked (see ``bench_pins.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--write-pins SEEDS`` regenerates ``pins.json`` for the
given seeds (``0-32`` or ``1,2,5``) instead of measuring.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Neither module imports the program, which must wait for bench_env.prepare().
import bench_env  # noqa: E402
from bench_pins import DEFAULT_SEED  # noqa: E402

WORKLOAD_NAMES = ("q7-sweeps", "q53-scale")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "sim_cycles_per_s": "1/s",
    "sim_flits_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--write-pins", metavar="SEEDS", default=None)
    return ap.parse_args(argv)


class OutputCheck:
    """Counts cells attempted and failed against their expected digests.

    Without pinned digests the first batch defines the expectation, so
    every later batch of the run must reproduce it exactly.
    """

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def batch(self, batch) -> None:
        from bench_pins import mismatches
        from bench_workloads import digest

        digests = [None if o is None else digest(o) for o in batch.outputs]
        if self.expected is None:
            self.expected = digests
        bad = set(mismatches(digests, self.expected))
        bad.update(i for i, d in enumerate(digests) if d is None)
        self.attempted += len(digests)
        self.failed += len(bad)
        if bad:
            self.notes.append(f"{len(bad)} cell(s) mismatched or failed")
        self.notes.extend(batch.errors)

    def reference(self, same: bool) -> None:
        self.attempted += 1
        if not same:
            self.failed += 1
            self.notes.append("flat engine disagrees with the reference engine")


def run_untraced(wl, seed: int, seconds: float, check: OutputCheck):
    """Time cold set-ups and whole batches for ``seconds``; medians of each."""
    from bench_env import children_peak_rss_mb, self_peak_rss_mb

    setups, batches, kernel_loaded = wl.measure(seed, seconds, check)
    metrics = {
        "setup_s": statistics.median(setups),
        "cells_per_s": statistics.median(len(b.cells) / b.wall_s for b in batches),
        "sim_cycles_per_s": statistics.median(b.sim_cycles / b.wall_s for b in batches),
        "sim_flits_per_s": statistics.median(b.flits / b.wall_s for b in batches),
        "peak_rss_mb": max(
            [self_peak_rss_mb(), children_peak_rss_mb()]
            + [b.child_rss_mb for b in batches]
        ),
    }
    return metrics, END_TO_END_UNITS, kernel_loaded, wl.workers, [b.wall_s for b in batches]


def run_traced(wl, seed: int, seconds: float, check: OutputCheck, out_path):
    """Alternate untraced and traced serial units for about ``seconds``.

    Per-layer numbers come from the traced unit with the median wall, so
    its layers plus the unattributed remainder add up to its wall.
    """
    from bench_trace import PER_LAYER_UNITS, Tracer, install_layer_spans, layer_metrics
    from bench_workloads import within

    objs = wl.setup()
    kernel_loaded = objs[2]
    wl.check_reference(seed, objs, check)
    objs = None
    gc.collect()
    plain, traced, last_s = [], [], 0.0
    t_start = time.perf_counter()
    while not traced or within(seconds, t_start, last_s):
        t_pair = time.perf_counter()
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_spans in order:
            if not with_spans:
                batch = wl.unit(seed)
                check.batch(batch)
                plain.append(batch.wall_s)
                continue
            tracer = Tracer()
            install_layer_spans(tracer)
            try:
                batch = wl.unit(seed, tracer)
            finally:
                tracer.uninstall()
            check.batch(batch)
            traced.append((batch.wall_s, tracer))
        last_s = time.perf_counter() - t_pair
    traced.sort(key=lambda item: item[0])
    wall, tracer = traced[(len(traced) - 1) // 2]
    metrics = layer_metrics(tracer, wall)
    metrics["tracing.overhead_ratio"] = statistics.median(
        w for w, _ in traced
    ) / statistics.median(plain)
    tracer.save(out_path)
    return metrics, PER_LAYER_UNITS, kernel_loaded, 1, [w for w, _ in traced]


def write_pins(seeds: list) -> int:
    """Record the full-size outputs of every workload for ``seeds``."""
    from bench_pins import load_pins, write_pins as save
    from bench_workloads import digest, make_workloads

    workloads = make_workloads("full")
    pins = {name: by_seed for name, by_seed in load_pins().items() if name in workloads}
    for name, wl in workloads.items():
        for seed, batch in wl.pin_batches(seeds):
            if any(o is None for o in batch.outputs):
                print(f"{name} seed {seed}: failed cells {batch.errors}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = [digest(o) for o in batch.outputs]
            print(f"pinned {name} seed {seed}: {len(batch.outputs)} cells", flush=True)
        gc.collect()
    save(pins)
    return 0


def _parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bench_env.program_present():
        print(
            f"hostbench: no program source under {bench_env.SRC}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    cleared = bench_env.prepare()
    bench_env.warm_kernel()
    if args.write_pins:
        return write_pins(_parse_seeds(args.write_pins))

    from bench_pins import expected_digests, load_pins
    from bench_workloads import make_workloads

    wl = make_workloads(args.size)[args.workload]
    expected = expected_digests(load_pins(), args.workload, args.seed, args.size)
    check = OutputCheck(expected)
    if args.trace:
        traces = bench_env.WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        out_path = traces / f"{args.workload}-seed{args.seed}-{args.size}.npz"
        metrics, units, kernel_loaded, workers, walls = run_traced(
            wl, args.seed, args.seconds, check, out_path
        )
    else:
        metrics, units, kernel_loaded, workers, walls = run_untraced(
            wl, args.seed, args.seconds, check
        )
    if not kernel_loaded:
        check.notes.append("C kernel did not load: timings would be numpy's")
    correct = check.failed == 0 and kernel_loaded
    info = bench_env.provenance(workers, kernel_loaded, cleared)
    info.update(
        workload=args.workload, seed=args.seed, size=args.size,
        trace=args.trace, pinned=expected is not None,
        unit_walls_s=[round(w, 4) for w in walls],
    )
    for note in check.notes:
        print(f"hostbench: {note}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
