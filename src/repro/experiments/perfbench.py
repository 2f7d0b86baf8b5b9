"""Engine performance harness: writes and gates ``BENCH_flitsim.json``.

Times both simulation engines (the flat core, whose cycle is the C
kernel, and the dict-of-deques reference) on the cells of
:data:`CELLS`; the *construction* path — topology build,
:class:`RoutingTables` (batched all-pairs BFS), candidate table,
unique-path cache and :class:`FlatFabric` — against the seed per-source
builders at the sizes of :data:`CONSTRUCTION_SPECS`; and three overhead
sections (:data:`OVERHEADS`), each timing an instrumented path against a
bare one in interleaved rounds.  :data:`GATES` holds every committed
bound and :func:`check` evaluates it.

:func:`run_benchmarks` is the entry point and ``tools/bench.py`` its
CLI.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import statistics
import time
from functools import partial
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.experiments.registry import (
    FAULTS,
    POLICIES,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
)
from repro.experiments.runner import simulate_point, simulate_workload
from repro.faults import prepare_fault_policy
from repro.flitsim._kernel import load_kernel
from repro.routing.tables import RoutingTables

__all__ = [
    "Cell",
    "CELLS",
    "CONSTRUCTION_SPECS",
    "CONSTRUCTION_GATE",
    "BASELINE_MAX_ROUTERS",
    "OVERHEADS",
    "Gate",
    "GATES",
    "bench_cell",
    "bench_construction",
    "bench_sweep_resilience",
    "bench_obs_overhead",
    "bench_ts_overhead",
    "measure_construction_memory",
    "select",
    "run_benchmarks",
    "check",
    "machine_info",
    "write_bench_json",
]

#: the seed every engine cell and overhead grid runs at
SEED = 1


class Cell(NamedTuple):
    """One engine cell: its document section, its spec and its cycles.

    Open-loop cells run ``warmup + measure`` cycles with no drain;
    closed-loop cells (a ``workload`` in the spec) run to completion and
    must finish within ``max_cycles``.
    """

    section: str
    spec: dict
    engines: tuple = ("reference", "flat")
    warmup: int = 150
    measure: int = 400
    max_cycles: int = 100_000


_PF_Q7 = "polarfly:conc=2,q=7"
_MTBF = "mtbf:count=3,mtbf=250,mttr=200,seed=2,start=150"
_RING = "allreduce:algo=ring,size=64"

#: Every engine cell, keyed by its name in ``BENCH_flitsim.json``.
#:
#: * ``cells`` — the Figure-9 PolarFly q=7 UGAL_PF configuration whose
#:   sweeps bottleneck every adaptive-routing figure, and Dragonfly
#:   minimal adversarial.
#: * ``workloads`` — collective completion, the closed-loop headline.
#:   ``wk01`` uses min routing, which keeps the Python share (batched
#:   route selection) small, so its flat rate tracks the C kernel.
#: * ``faults`` — the Figure-9 configuration under a mid-run MTBF link
#:   failure/repair process; ``fault01`` is its min-routing twin.
#: * ``scale`` — the sparse tier, flat engine only: the reference engine
#:   is pinned bit-identical on the small golden cells instead.
CELLS = {
    "fig09_pf_ugalpf_uniform": Cell("cells", dict(
        topology=_PF_Q7, policy="ugal-pf", traffic="uniform", load=0.5,
    )),
    "fig09_pf_ugalpf_perm1hop": Cell("cells", dict(
        topology=_PF_Q7, policy="ugal-pf", traffic="perm1hop:seed=1",
        load=0.6,
    )),
    "df_min_adversarial": Cell("cells", dict(
        topology="dragonfly:a=4,h=2,p=2", policy="min", traffic="tornado",
        load=0.7,
    )),
    "allreduce_ring_pf_q7": Cell("workloads", dict(
        topology=_PF_Q7, policy="ugal-pf", workload=_RING,
    )),
    "alltoall_pf_q7": Cell("workloads", dict(
        topology=_PF_Q7, policy="min", workload="alltoall:size=8",
    )),
    "wk01_allreduce_kernel": Cell("workloads", dict(
        topology=_PF_Q7, policy="min", workload=_RING,
    )),
    "fig14_pf_ugalpf_mtbf": Cell("faults", dict(
        topology=_PF_Q7, policy="ugal-pf", traffic="uniform", load=0.5,
        faults=_MTBF,
    )),
    "fault01_mtbf_kernel": Cell("faults", dict(
        topology=_PF_Q7, policy="min", traffic="uniform", load=0.5,
        faults=_MTBF,
    )),
    "scale_pf_q53_min_uniform": Cell("scale", dict(
        topology="polarfly:conc=2,q=53", policy="min", traffic="uniform",
        load=0.2,
    ), engines=("flat",), warmup=100, measure=300),
    "scale_ps_q11_min_uniform": Cell("scale", dict(
        topology="polarstar:conc=2,q=11,sq=25", policy="min",
        traffic="uniform", load=0.2,
    ), engines=("flat",), warmup=100, measure=300),
}

#: The construction-trajectory topologies: the paper's headline PolarFly
#: sizes from the q=7 toy (N=57) through the large-radix regime the
#: batched builders unlock (q=31: N=993, ~1M router pairs), plus the
#: sparse tier — q=53 (N=2863), q=79 (N=6321) and the PolarStar
#: star-product instance PS(q=11, s=25) (N=3325) — that the O(N^2)-free
#: structures exist for.
CONSTRUCTION_SPECS = {
    "pf_q7": "polarfly:conc=2,q=7",
    "pf_q19": "polarfly:conc=2,q=19",
    "pf_q31": "polarfly:conc=2,q=31",
    "pf_q53": "polarfly:conc=2,q=53",
    "pf_q79": "polarfly:conc=2,q=79",
    "ps_q11": "polarstar:conc=2,q=11,sq=25",
}

#: the construction entry the speedup gates read
CONSTRUCTION_GATE = "pf_q19"

#: Largest router count at which the seed per-source baselines (a
#: Python BFS loop per source, plus the dense-CSR oracle) are still
#: cheap enough to time.  Larger specs record batched walls and memory
#: only, with a ``baseline_skipped`` note — q=31 keeps its baseline, so
#: the committed speedup trajectory is unbroken.
BASELINE_MAX_ROUTERS = 1200


def machine_info() -> dict:
    """Environment fingerprint recorded next to every measurement."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
        "flat_kernel": load_kernel() is not None,
    }


def _timed(fn, *args, repeats: int = 1):
    """(result, best wall seconds) of calling ``fn`` ``repeats`` times."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def _interleaved(a, b, repeats: int) -> "tuple[list, list]":
    """Per-round walls ``(a_walls, b_walls)`` of two alternating sides.

    Both sides run once untimed first, so neither pays construction
    memos or pool start-up.  Then each of ``repeats`` rounds times both
    back to back; the two walls of a round share its CPU-frequency and
    box-load drift (easily ±15% across a CI run), so per-round ratios
    cancel it.  The side that runs first alternates from round to
    round, so neither always inherits the state the other left.
    """
    a()
    b()
    a_walls, b_walls = [], []
    for i in range(repeats):
        if i % 2:
            b_walls.append(_timed(b)[1])
            a_walls.append(_timed(a)[1])
        else:
            a_walls.append(_timed(a)[1])
            b_walls.append(_timed(b)[1])
    return a_walls, b_walls


def _prepare(cell: Cell, topo, tables, engine: str):
    """One engine's run of ``cell``, on fresh single-run objects.

    Policy, traffic, workload and fault timeline are rebuilt per engine:
    a fault timeline pins the policy it prepared, and neither engine may
    see state the other left behind.
    """
    spec = cell.spec
    policy = POLICIES.create(spec["policy"], tables)
    if "workload" in spec:
        workload = WORKLOADS.create(spec["workload"], topo)
        return lambda: simulate_workload(
            topo, policy, workload, max_cycles=cell.max_cycles, seed=SEED,
            engine=engine,
        )
    faults = None
    if "faults" in spec:
        faults = FAULTS.create(spec["faults"], topo)
        prepare_fault_policy(policy, faults, topo)
    traffic = TRAFFICS.create(spec["traffic"], topo)
    return lambda: simulate_point(
        topo, policy, traffic, spec["load"], warmup=cell.warmup,
        measure=cell.measure, drain=0, seed=SEED, engine=engine,
        faults=faults,
    )


def _signature(res) -> list:
    """Every field of a result and of its fault accounting.

    The engines are pinned bit-identical per seed, so two engines' runs
    of one cell must produce equal signatures.
    """
    sig = []
    for obj in (res, getattr(res, "fault", None)):
        if obj is None:
            continue
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, np.ndarray):
                value = (value.dtype.str, value.shape, value.tobytes())
            sig.append((f.name, value))
    return sig


def _counters(res) -> dict:
    """The engine-agnostic counts a cell records beside its timings."""
    if hasattr(res, "num_messages"):
        return {
            "num_messages": res.num_messages,
            "wire_flits": res.wire_flits,
            "bisection_utilization": res.bisection_utilization,
        }
    fault = getattr(res, "fault", None)
    if fault is None:
        return {}
    return {
        "dropped_flits": fault.dropped_flits,
        "dropped_packets": fault.dropped_packets,
        "damaged_packets": fault.damaged_packets,
        "blackholed_packets": fault.blackholed_packets,
        "fault_applied_events": fault.applied_events,
    }


def bench_cell(cell: Cell) -> dict:
    """Time one cell on each of its engines.

    Topology and routing tables are built once; each engine then times
    one :func:`simulate_point` or :func:`simulate_workload` call, which
    includes building its simulator.  The walls split into ``phases``:
    construct (topology), route (tables) and simulate (summed engine
    runs), each also emitted as a ``bench.phase`` span when
    ``$REPRO_OBS`` is on.

    Raises when two engines' result signatures differ — a baseline built
    on diverged engines would be silently wrong — and when a workload
    does not finish within ``max_cycles``, since an unfinished
    collective has no completion time to record.
    """
    spec = cell.spec
    with obs.span("bench.phase", phase="construct"):
        topo, construct_s = _timed(TOPOLOGIES.create, spec["topology"])
    with obs.span("bench.phase", phase="route"):
        tables, route_s = _timed(RoutingTables, topo)
    result: dict = {"cell": dict(spec), "engines": {}}
    first = None
    simulate_s = 0.0
    for engine in cell.engines:
        run = _prepare(cell, topo, tables, engine)
        with obs.span("bench.phase", phase="simulate", engine=engine):
            res, wall = _timed(run)
        if "workload" in spec and not res.finished:
            raise RuntimeError(
                f"{spec}: {engine} completed {res.completed_messages} of "
                f"{res.num_messages} messages within {cell.max_cycles} cycles"
            )
        sig = _signature(res)
        if first is None:
            first = (engine, sig)
        elif sig != first[1]:
            raise RuntimeError(
                f"engine divergence on {spec}: {engine} and {first[0]} "
                "results differ"
            )
        simulate_s += wall
        cycles = res.cycles if "workload" in spec else cell.warmup + cell.measure
        result["engines"][engine] = {
            "wall_s": wall,
            "cycles_per_sec": cycles / wall,
        }
    result["cycles"] = cycles
    result.update(_counters(res))
    result["phases"] = {
        "construct_s": construct_s,
        "route_s": route_s,
        "simulate_s": simulate_s,
    }
    eng = result["engines"]
    if "reference" in eng and "flat" in eng:
        result["speedup_flat_over_reference"] = (
            eng["flat"]["cycles_per_sec"] / eng["reference"]["cycles_per_sec"]
        )
    return result


def measure_construction_memory(spec: str) -> dict:
    """Peak memory of one full construction (topology through fabric).

    The tracemalloc traced peak (exact Python-side allocation high-water
    mark, machine-independent) plus the byte counts of the distance
    matrix and candidate table.  Run *after* the timing pass:
    tracemalloc taxes every allocation.
    """
    import tracemalloc

    from repro.flitsim.flatcore import FlatFabric

    tracemalloc.start()
    try:
        topo = TOPOLOGIES.create(spec)
        tables = RoutingTables(topo)
        FlatFabric(topo)
        if tables._path_cache_enabled():
            tables._unique_path_cache()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "traced_peak_bytes": int(peak),
        "traced_current_bytes": int(current),
        "dist_bytes": int(np.asarray(tables.dist).nbytes),
        "candidate_table_bytes": int(tables._candidate_table().nbytes()),
    }


def bench_construction(spec: str, repeats: int = 2) -> dict:
    """Time the construction path of one topology spec.

    Measures the batched builders — topology construction,
    :class:`RoutingTables` (one fused batched all-sources BFS), the
    compact candidate table, the unique-path cache (when enabled), and
    :class:`FlatFabric` — best of ``repeats``.  Up to
    :data:`BASELINE_MAX_ROUTERS` routers it also times the seed
    per-source equivalents (``bfs_distances_reference`` per source,
    :func:`per_source_candidate_csr` with the dense-CSR
    materialization) and records the speedups.  Ends with a
    :func:`measure_construction_memory` pass.
    """
    from repro.flitsim.flatcore import FlatFabric
    from repro.routing.tables import per_source_candidate_csr
    from repro.utils.graph import bfs_distances_reference

    topo, topo_s = _timed(TOPOLOGIES.create, spec, repeats=repeats)
    tables, tables_s = _timed(RoutingTables, topo, repeats=repeats)

    def fresh(build):
        # Reset the lazy compact table instead of rebuilding the whole
        # tables object — times the derive-from-dist path (the fault
        # repair path) without re-paying the BFS.
        tables._cands = None
        return _timed(build)[1]

    table_s = min(fresh(tables._candidate_table) for _ in range(repeats))
    _, fabric_s = _timed(FlatFabric, topo, repeats=repeats)
    entry = {
        "spec": spec,
        "num_routers": topo.num_routers,
        "num_links": topo.num_links,
        "topology_s": topo_s,
        "routing_tables": {"batched_s": tables_s},
        "candidate_table": {
            "batched_s": table_s,
            "nbytes": int(tables._candidate_table().nbytes()),
        },
        "fabric_s": fabric_s,
    }
    if tables._path_cache_enabled():
        # The candidate table is already built (the last fresh pass), so
        # this times the cache walk alone.
        entry["path_cache_s"] = _timed(tables._unique_path_cache)[1]
    if topo.num_routers > BASELINE_MAX_ROUTERS:
        entry["baseline_skipped"] = (
            f"num_routers > {BASELINE_MAX_ROUTERS}: the per-source Python "
            "BFS loop and dense-CSR oracle are deliberately not run at "
            "sparse-tier sizes"
        )
    else:
        graph = topo.graph

        def per_source_bfs():
            for s in range(graph.n):
                bfs_distances_reference(graph, s)

        _, per_source_s = _timed(per_source_bfs, repeats=repeats)
        rt = entry["routing_tables"]
        rt["per_source_s"] = per_source_s
        rt["speedup_batched_over_per_source"] = per_source_s / tables_s
        # The dense-CSR comparison: compact table build plus the O(n^2)
        # indptr materialization, matching what the per-source build
        # produces.
        csr_s = min(fresh(tables._candidate_csr) for _ in range(repeats))
        _, csr_ps = _timed(
            per_source_candidate_csr, graph, tables.dist, repeats=repeats
        )
        entry["candidate_csr"] = {
            "batched_s": csr_s,
            "per_source_s": csr_ps,
            "speedup_batched_over_per_source": csr_ps / csr_s,
        }
    del tables
    entry["memory"] = measure_construction_memory(spec)
    return entry


def _fig09_grid(loads, **overrides):
    """The Figure-9 headline grid the overhead sections time."""
    from repro.experiments.spec import ExperimentSpec

    return ExperimentSpec.grid(
        [_PF_Q7], ["ugal-pf"], ["uniform"], loads=tuple(loads),
        warmup=150, measure=400, drain=100, root_seed=SEED, **overrides,
    )


def bench_sweep_resilience(repeats: int = 5, max_workers: int = 2) -> dict:
    """Scheduler overhead: resilient dispatch vs a bare ``pool.map``.

    Times the Figure-9 grid (16 loads — wide enough that per-cell jitter
    averages out within a round) at one pool size through the full
    crash-resilient scheduler (dynamic chunking, as-completed harvest,
    deadline tracking — the retry machinery idles on a clean run) and
    as the seed's ``pool.map`` over statically pre-split chunks, both
    against pre-warmed pools.  The gated estimator is the *median of
    per-round ratios*: what resilience costs when nothing goes wrong.
    """
    import math
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.runner import SweepRunner, run_chunk

    spec = _fig09_grid(0.1 + 0.05 * i for i in range(16))
    cells = spec.cells()
    per = math.ceil(len(cells) / max_workers)
    chunks = [cells[i : i + per] for i in range(0, len(cells), per)]
    runner = SweepRunner(cache=None, max_workers=max_workers)
    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            sched, pool_map = _interleaved(
                lambda: runner.run(spec),
                lambda: list(pool.map(run_chunk, chunks)),
                repeats,
            )
    finally:
        runner.close()
    ratios = [s / m for s, m in zip(sched, pool_map)]
    return {
        "grid": {
            "cells": len(cells),
            "max_workers": max_workers,
            "repeats": repeats,
        },
        "scheduler_s": min(sched),
        "pool_map_s": min(pool_map),
        "round_ratios": ratios,
        "overhead_vs_pool_map": statistics.median(ratios),
    }


def bench_obs_overhead(repeats: int = 5) -> dict:
    """Observability tax on the disabled path: instrumented vs seed.

    With ``$REPRO_OBS`` unset, every wired emit/span/counter call must
    collapse to (at most) one env lookup.  Each round times the fully
    instrumented serial path — ``SweepRunner(max_workers=1).run()`` with
    its lifecycle emits, heartbeat checks, per-cell spans and cache
    counters all disabled — against the seed execution spine, a bare
    ``run_cell`` loop over the same cells.  The gated estimator is min
    instrumented wall over min bare wall: a transient stall in one round
    cannot fail the gate, only a cost paid in every round can.  The
    *enabled* ratio (events written to a scratch dir) is informational.
    """
    import shutil
    import tempfile

    from repro.experiments.runner import SweepRunner, run_cell

    spec = _fig09_grid(0.1 + 0.1 * i for i in range(8))
    cells = spec.cells()
    runner = SweepRunner(cache=None, max_workers=1)
    disabled, bare = _interleaved(
        lambda: runner.run(spec), lambda: [run_cell(c) for c in cells], repeats
    )
    tmp = tempfile.mkdtemp(prefix="repro-obs-bench-")
    saved = os.environ.get(obs.OBS_ENV)
    try:
        os.environ[obs.OBS_ENV] = f"dir={tmp},sample=1"
        _, enabled_s = _timed(runner.run, spec, repeats=2)
    finally:
        if saved is None:
            os.environ.pop(obs.OBS_ENV, None)
        else:
            os.environ[obs.OBS_ENV] = saved
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "grid": {"cells": len(cells), "repeats": repeats},
        "disabled_s": min(disabled),
        "bare_s": min(bare),
        "enabled_s": enabled_s,
        "round_ratios": [d / b for d, b in zip(disabled, bare)],
        "overhead_disabled_vs_seed": min(disabled) / min(bare),
        "overhead_enabled_vs_disabled": enabled_s / min(disabled),
    }


def bench_ts_overhead(repeats: int = 3) -> dict:
    """Time-series tax with windows *off*: merged feature vs seed spine.

    Windowed collection is opt-in (``ExperimentSpec.window=0`` by
    default), so it may not slow down the runs that never asked for it.
    Each round times a ``run_cell`` loop over non-windowed cells — the
    path every sweep takes, window checks and all — against the seed
    execution spine: a direct ``make_simulator(...).run(...)`` loop on
    the same points with none of the cell plumbing.  The gated estimator
    is min over min; the windowed-*on* ratio (``window=64`` on the same
    grid) is informational.
    """
    from repro.experiments.runner import (
        _build_cell_objects,
        auto_sim_config,
        run_cell,
    )
    from repro.flitsim.engine import make_simulator

    spec = _fig09_grid((0.2, 0.4, 0.6, 0.8))
    cells = spec.cells()
    win_cells = spec.with_(window=64).cells()

    def seed_spine():
        for cell in cells:
            topo, policy, traffic = _build_cell_objects(cell)
            config = auto_sim_config(
                policy,
                port_budget=cell["port_budget"],
                num_vcs=cell["num_vcs"],
                vc_depth=cell["vc_depth"],
                packet_size=cell["packet_size"],
            )
            sim = make_simulator(
                topo, policy, traffic, cell["load"], config=config,
                seed=cell["seed"],
            )
            sim.run(
                warmup=cell["warmup"], measure=cell["measure"],
                drain=cell["drain"],
            )

    off, bare = _interleaved(
        lambda: [run_cell(c) for c in cells], seed_spine, repeats
    )
    _, on_s = _timed(lambda: [run_cell(c) for c in win_cells], repeats=2)
    return {
        "grid": {"cells": len(cells), "repeats": repeats},
        "windows_off_s": min(off),
        "bare_s": min(bare),
        "windows_on_s": on_s,
        "round_ratios": [o / b for o, b in zip(off, bare)],
        "overhead_off_vs_seed": min(off) / min(bare),
        "overhead_on_vs_off": on_s / min(off),
    }


#: The overhead sections, each a top-level entry of the document.
OVERHEADS = {
    "sweep_resilience": bench_sweep_resilience,
    "obs_overhead": bench_obs_overhead,
    "ts_overhead": bench_ts_overhead,
}


def select(only=None) -> list:
    """The ``(section, name, job)`` triples a run with ``only`` performs.

    ``name`` is None for an overhead section, which fills its section
    alone.  ``only`` names cells, construction specs, overhead sections,
    or whole sections (``cells``, ``workloads``, ``faults``, ``scale``,
    ``construction``); None selects everything.  Unknown names raise
    ``ValueError``.
    """
    jobs = [
        (cell.section, name, partial(bench_cell, cell))
        for name, cell in CELLS.items()
    ]
    jobs += [
        ("construction", name, partial(bench_construction, spec))
        for name, spec in CONSTRUCTION_SPECS.items()
    ]
    # Looked up at call time, so a replaced entry is the one that runs.
    jobs += [(name, None, lambda name=name: OVERHEADS[name]()) for name in OVERHEADS]
    if only is None:
        return jobs
    only = set(only)
    known = {section for section, _, _ in jobs} | set(CELLS) | set(
        CONSTRUCTION_SPECS
    )
    if only - known:
        raise ValueError(
            f"unknown names {sorted(only - known)}; have {sorted(known)}"
        )
    return [job for job in jobs if only & {job[0], job[1]}]


def run_benchmarks(only=None) -> dict:
    """Run the selected jobs (see :func:`select`) into one document."""
    jobs = select(only)
    doc = {
        "benchmark": "flitsim-engine",
        "machine": machine_info(),
        "seed": SEED,
    }
    for section, name, job in jobs:
        if name is None:
            doc[section] = job()
        else:
            doc.setdefault(section, {})[name] = job()
    return doc


class Gate(NamedTuple):
    """One committed bound on one number of the document.

    ``path`` leads from the document root to the number.  ``kind`` is
    ``min`` (value >= bound), ``max`` (value <= bound) or ``slack``: the
    committed baseline's value over this run's is <= bound.  A slack
    gate compares two same-machine ratios, so it holds on runners
    slower or faster than the machine that committed the baseline.
    """

    name: str
    path: tuple
    kind: str
    bound: float


_Q19_SPEEDUP = (
    "construction", CONSTRUCTION_GATE, "routing_tables",
    "speedup_batched_over_per_source",
)

#: Every gate ``check`` evaluates.
GATES = [
    *(
        Gate(f"{name} flat/reference", (cell.section, name,
             "speedup_flat_over_reference"), "min", 1.0)
        for name, cell in CELLS.items()
        if "reference" in cell.engines
    ),
    Gate(f"{CONSTRUCTION_GATE} RoutingTables batched/per-source",
         _Q19_SPEEDUP, "min", 1.0),
    Gate(f"{CONSTRUCTION_GATE} RoutingTables committed/measured speedup",
         _Q19_SPEEDUP, "slack", 5.0),
    Gate("sweep_resilience scheduler/pool.map, median of rounds",
         ("sweep_resilience", "overhead_vs_pool_map"), "max", 1.05),
    Gate("obs_overhead disabled/seed, min over min",
         ("obs_overhead", "overhead_disabled_vs_seed"), "max", 1.03),
    Gate("ts_overhead windows-off/seed, min over min",
         ("ts_overhead", "overhead_off_vs_seed"), "max", 1.05),
]


def _lookup(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def check(doc: dict, committed: "dict | None" = None) -> list:
    """Evaluate :data:`GATES` on ``doc``: one ``(ok, line)`` per gate.

    A gate whose number the run did not produce (a section ``only`` left
    out) is not listed; a slack gate without a ``committed`` baseline
    passes with a note.  A run without the C cycle kernel fails: its
    ``flat`` cells ran the reference engine, so there was no flat engine
    to gate.
    """
    lines = []
    if not doc["machine"]["flat_kernel"]:
        lines.append((False, (
            "FAIL flat_kernel: the C cycle kernel did not build (no cffi "
            "or compiler), so 'flat' ran the reference engine"
        )))
    for gate in GATES:
        value = _lookup(doc, gate.path)
        if value is None:
            continue
        if gate.kind == "slack":
            old = _lookup(committed or {}, gate.path)
            if old is None:
                lines.append((True, f"SKIP {gate.name}: no committed baseline"))
                continue
            value = old / value
        ok = value >= gate.bound if gate.kind == "min" else value <= gate.bound
        op = ">=" if gate.kind == "min" else "<="
        lines.append((ok, (
            f"{'PASS' if ok else 'FAIL'} {gate.name}: {value:.3f} "
            f"(gate {op} {gate.bound})"
        )))
    return lines


def write_bench_json(doc: dict, path="BENCH_flitsim.json"):
    """Atomically write the benchmark document."""
    from repro.utils.export import write_json_artifact

    return write_json_artifact(path, doc)
