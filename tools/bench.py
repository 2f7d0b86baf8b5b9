#!/usr/bin/env python
"""CLI for the perf harness: writes and gates BENCH_flitsim.json.

    PYTHONPATH=src python tools/bench.py [--out PATH] [--only NAME[,NAME]]
        [--check]

``--only`` runs just the named cells, construction specs or sections
(see ``repro.experiments.perfbench.select``).  Every run prints the
gates of ``repro.experiments.perfbench.GATES`` that its sections feed;
``--check`` exits 1 when any of them fails, and also when the C cycle
kernel is missing, since then there is no flat engine to gate.  The
``--out`` file is read before it is overwritten: its q=19 construction
speedup is the baseline of the slack gate.
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.experiments import perfbench  # noqa: E402


def _load(path: str) -> dict:
    """The committed document at ``path``, or {}."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_flitsim.json")
    parser.add_argument(
        "--only", default=None, metavar="NAME[,NAME]",
        help="comma-separated cell, construction or section names",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if any gate fails",
    )
    args = parser.parse_args(argv)
    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
        try:
            perfbench.select(only)
        except ValueError as exc:
            parser.error(str(exc))

    committed = _load(args.out)
    doc = perfbench.run_benchmarks(only)
    path = perfbench.write_bench_json(doc, args.out)

    for section in ("cells", "workloads", "faults", "scale"):
        for name, entry in doc.get(section, {}).items():
            line = f"{name:28s} " + "   ".join(
                f"{engine} {e['cycles_per_sec']:9.0f} c/s"
                for engine, e in entry["engines"].items()
            )
            if "speedup_flat_over_reference" in entry:
                line += f"   speedup {entry['speedup_flat_over_reference']:.2f}x"
            print(line)
    for name, entry in doc.get("construction", {}).items():
        rt = entry["routing_tables"]
        line = (
            f"{name:28s} N={entry['num_routers']:<5d} tables "
            f"{rt['batched_s'] * 1e3:8.1f} ms   traced peak "
            f"{entry['memory']['traced_peak_bytes'] / 2**20:5.0f} MB"
        )
        if "speedup_batched_over_per_source" in rt:
            line += f"   speedup {rt['speedup_batched_over_per_source']:.1f}x"
        print(line)
    results = perfbench.check(doc, committed)
    for _, line in results:
        print(line)
    print(f"wrote {path}")
    return 1 if args.check and not all(ok for ok, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())
