"""Perf smoke: time both engines on the canonical cells, write the baseline.

Not a pytest module (no ``test_`` prefix) — run it directly:

    PYTHONPATH=src python benchmarks/perf_smoke.py

Times the struct-of-arrays flat engine against the reference engine on
the canonical cells (Figure-9 PolarFly q=7 UGAL_PF, Dragonfly minimal
adversarial), the closed-loop workload cells (ring all-reduce and
all-to-all on PolarFly q=7, completion time per engine), plus the
construction path (topology, routing tables, candidate CSR, flat
fabric) at q ∈ {7, 19, 31}, and writes ``BENCH_flitsim.json``.  ``tools/bench.py`` is the CLI wrapper with
knobs and the CI ``--check`` / ``--check-construction`` gates.
"""

from repro.experiments.perfbench import run_benchmarks, write_bench_json


def main() -> dict:
    doc = run_benchmarks()
    path = write_bench_json(doc)
    for name, cell in doc["cells"].items():
        ref = cell["engines"]["reference"]["cycles_per_sec"]
        flat = cell["engines"]["flat"]["cycles_per_sec"]
        print(
            f"{name:28s} reference {ref:9.0f} c/s   flat {flat:9.0f} c/s   "
            f"speedup {cell['speedup_flat_over_reference']:.2f}x"
        )
    for name, entry in doc.get("workloads", {}).items():
        speedup = entry.get("speedup_flat_over_reference")
        print(
            f"{name:28s} completion {entry['completion_cycles']:6d} cyc"
            + (f"   speedup {speedup:.2f}x" if speedup else "")
        )
    for name, entry in doc.get("construction", {}).items():
        rt = entry["routing_tables"]
        speedup = rt.get("speedup_batched_over_per_source")
        print(
            f"{name:28s} N={entry['num_routers']:<5d} tables "
            f"{rt['batched_s'] * 1e3:7.1f} ms"
            + (f"   speedup {speedup:.1f}x" if speedup else "")
        )
    print(f"wrote {path}")
    return doc


if __name__ == "__main__":
    main()
