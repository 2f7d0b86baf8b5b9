"""The benchmark's two workloads and the checks on their outputs.

Each workload is a fixed batch of simulation cells derived from the
workload seed (the ``root_seed`` of its experiment specs).  A batch is the
unit the benchmark times; see ``README.md`` for why each workload exists.
The ``tiny`` size keeps every code path but shrinks the inputs so the
benchmark's own tests can run each workload in seconds; pinned outputs
exist for the ``full`` size only.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.experiments import (
    FAULTS,
    POLICIES,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
    Combo,
    ExperimentSpec,
    ResultCache,
    SweepRunner,
)
from repro.experiments import runner
from repro.faults import prepare_fault_policy
from repro.flitsim import flatcore
from repro.routing.tables import RoutingTables

from bench_env import WORK, children_peak_rss_mb

COLLECTIVES = (
    "allreduce:algo=ring",
    "allreduce:algo=rd",
    "alltoall",
    "halo",
    "incast:reply=true",
)
FAULT_SPECS = (
    "mtbf:count=3,mtbf=250,mttr=200,seed=2,start=150",
    "progressive:frac=0.1,seed=3",
)

#: worker processes of the sweep workloads
SWEEP_WORKERS = min(2, os.cpu_count() or 1)

#: batches timed at least, however short the run
MIN_BATCHES = 2

#: cold set-ups a sweep workload times before each of its batches; each
#: takes milliseconds at q=7, so the median needs many, and spreading them
#: over the run samples the host as the batches do
SWEEP_SETUPS = 10


def digest(record: dict) -> str:
    """Short content hash of one cell's simulated output."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _array_digest(values, dtype) -> str:
    return hashlib.sha256(np.asarray(values, dtype=dtype).tobytes()).hexdigest()[:16]


def result_record(res) -> dict:
    """Every simulated statistic of a ``SimResult``/``WorkloadResult``.

    Latency and hop samples enter through digests, so two records are
    equal only if the runs were sample-for-sample identical.
    """
    latencies = getattr(res, "packet_latencies", None)
    if latencies is None:
        latencies = res.latencies
    record = {
        "cycles": int(res.cycles),
        "injected_flits": int(res.injected_flits),
        "ejected_flits": int(res.ejected_flits),
        "latencies": _array_digest(latencies, np.float64),
        "hops": _array_digest(res.hop_counts, np.int64),
    }
    if hasattr(res, "summary"):
        record["summary"] = res.summary()
    fault = getattr(res, "fault", None)
    if fault is not None:
        record["fault"] = fault.summary()
    return record


def sim_cycles(cell: dict, stats: dict) -> int:
    """Cycles a cell simulated: its full window, or its completion time."""
    if cell.get("workload"):
        return int(stats["cycles"])
    return int(cell["warmup"] + cell["measure"] + cell["drain"])


def cold_setup(topo_spec: str, tracer=None):
    """Spec to simulate-ready objects, every lazy structure built.

    Topology, routing tables, the first batched path query (which builds
    the unique-path cache), the flat fabric and the C kernel.
    """
    topo = TOPOLOGIES.create(topo_spec)
    tables = RoutingTables(topo)
    n = topo.num_routers
    srcs, dsts = np.array([0], np.int64), np.array([n - 1], np.int64)
    if tracer is None:
        tables.shortest_paths_batch(srcs, dsts)
    else:
        with tracer.span("routing.tables.path_cache"):
            tables.shortest_paths_batch(srcs, dsts)
    flatcore.fabric_for(topo)
    kernel = flatcore.load_kernel()
    return topo, tables, kernel is not None


def run_engine(topo, tables, cell: dict, engine: str) -> dict:
    """One cell on pre-built ``topo``/``tables`` with a pinned engine."""
    policy = POLICIES.create(cell["policy"], tables)
    faults = None
    if cell.get("faults"):
        faults = FAULTS.create(cell["faults"], topo)
        prepare_fault_policy(policy, faults, topo)
    config = runner.auto_sim_config(
        policy,
        port_budget=cell["port_budget"],
        num_vcs=cell["num_vcs"],
        vc_depth=cell["vc_depth"],
        packet_size=cell["packet_size"],
    )
    if cell.get("workload"):
        res = runner.simulate_workload(
            topo, policy, WORKLOADS.create(cell["workload"], topo),
            config=config, max_cycles=cell["max_cycles"], seed=cell["seed"],
            engine=engine, faults=faults,
        )
    else:
        res = runner.simulate_point(
            topo, policy, TRAFFICS.create(cell["traffic"], topo), cell["load"],
            config=config, warmup=cell["warmup"], measure=cell["measure"],
            drain=cell["drain"], seed=cell["seed"], engine=engine,
            faults=faults,
        )
    return result_record(res)


@dataclass
class Batch:
    """One timed batch: its wall and each cell's output (None: failed)."""

    wall_s: float
    cells: list
    outputs: list
    child_rss_mb: float = 0.0
    errors: list = field(default_factory=list)

    @property
    def sim_cycles(self) -> int:
        return sum(
            sim_cycles(c, o) for c, o in zip(self.cells, self.outputs) if o
        )

    @property
    def flits(self) -> int:
        return sum(int(o["ejected_flits"]) for o in self.outputs if o)


def reset_runner_memo() -> None:
    """Forget the sweep runner's per-process topology memo.

    Serial units run cells in this process; clearing the memo between
    units makes each one pay its own construction, as every batch of
    fresh pool workers does.
    """
    runner._TOPO_MEMO.clear()
    gc.collect()


def within(seconds: float, t_start: float, last_s: float) -> bool:
    """Whether one more step as long as the last one ends within ``seconds``."""
    return time.perf_counter() - t_start + last_s <= seconds


def _repeat(seconds: float, run_one, check) -> list:
    """Batches from ``run_one()``, each checked, for about ``seconds``.

    A batch starts only if it is expected to end in time, so a run lasts
    ``seconds`` however long its batches are.
    """
    batches, last_s = [], 0.0
    t_start = time.perf_counter()
    while len(batches) < MIN_BATCHES or within(seconds, t_start, last_s):
        t0 = time.perf_counter()
        batch = run_one()
        check.batch(batch)
        batches.append(batch)
        last_s = time.perf_counter() - t0
    return batches


class _Workload:
    """A named batch of cells on one topology, plus its reference cells.

    ``measure(seed, seconds, check)`` times cold set-ups and whole
    batches and returns ``(setup walls, batches, kernel loaded)``;
    ``pin_batches(seeds)`` yields one untimed batch per seed.
    """

    def __init__(self, name, topology, reference):
        self.name = name
        self.topology = topology
        self._reference = reference

    def setup(self, tracer=None):
        return cold_setup(self.topology, tracer)

    def timed_setup(self, setups: list):
        """One cold :meth:`setup`, its wall appended to ``setups``."""
        gc.collect()
        t0 = time.perf_counter()
        objs = self.setup()
        setups.append(time.perf_counter() - t0)
        return objs

    def check_reference(self, seed: int, objs, check) -> None:
        """Record for each short reference cell whether flat and reference agree."""
        topo, tables, _ = objs
        for cell in self._reference(seed):
            check.reference(run_engine(topo, tables, cell, "flat") == run_engine(
                topo, tables, cell, "reference"
            ))


class SweepWorkload(_Workload):
    """Experiment specs run by one :class:`SweepRunner` into a fresh cache.

    Set-up takes milliseconds here, so it is timed apart from the
    batches: several cold set-ups before each batch on a fresh pool.
    """

    workers = SWEEP_WORKERS

    def __init__(self, name, topology, specs, reference):
        super().__init__(name, topology, reference)
        self.specs = specs

    def measure(self, seed: int, seconds: float, check):
        setups = []
        objs = self.timed_setups(setups)
        self.check_reference(seed, objs, check)
        kernel_loaded = objs[2]
        objs = None

        def one():
            self.timed_setups(setups)
            return self.run_batch(seed, self.workers)

        return setups, _repeat(seconds, one, check), kernel_loaded

    def timed_setups(self, setups: list):
        """:data:`SWEEP_SETUPS` cold set-ups; the objects of the last."""
        objs = None
        for _ in range(SWEEP_SETUPS):
            objs = None  # free the previous fabric before building the next
            objs = self.timed_setup(setups)
        return objs

    def pin_batches(self, seeds):
        for seed in seeds:
            yield seed, self.run_batch(seed, self.workers)

    def run_batch(self, seed: int, workers: int) -> Batch:
        specs = self.specs(seed)
        cells = [spec.cells() for spec in specs]
        with tempfile.TemporaryDirectory(dir=WORK / "tmp") as tmp:
            sweep = SweepRunner(cache=ResultCache(tmp), max_workers=workers)
            try:
                t0 = time.perf_counter()
                results = [sweep.run(spec, strict=False) for spec in specs]
                wall = time.perf_counter() - t0
                rss = children_peak_rss_mb()
            finally:
                sweep.close()
        outputs, errors = [], []
        for spec_cells, res in zip(cells, results):
            outputs.extend(res.cells.get(cell["key"]) for cell in spec_cells)
            errors.extend(err.error for err in res.failed_cells.values())
        flat = [c for spec_cells in cells for c in spec_cells]
        return Batch(wall, flat, outputs, rss, errors)

    def unit(self, seed: int, tracer=None) -> Batch:
        """One serial batch with cold per-process construction."""
        reset_runner_memo()
        return self.run_batch(seed, workers=1)


class ScaleWorkload(_Workload):
    """Cold construction of a large fabric, then cells via ``simulate_point``.

    Set-up is seconds of work here, so every batch follows a cold set-up
    of its own, in this one process.
    """

    workers = 1

    def __init__(self, name, topology, spec, reference):
        super().__init__(name, topology, reference)
        self.spec = spec

    def measure(self, seed: int, seconds: float, check):
        setups, objs = [], None

        def one():
            nonlocal objs
            objs = None  # free the previous fabric before building the next
            objs = self.timed_setup(setups)
            return self.run_batch(seed, objs)

        batches = _repeat(seconds, one, check)
        self.check_reference(seed, objs, check)
        return setups, batches, objs[2]

    def pin_batches(self, seeds):
        objs = self.setup()
        for seed in seeds:
            yield seed, self.run_batch(seed, objs)

    def run_batch(self, seed: int, objs) -> Batch:
        topo, tables, _ = objs
        cells = self.spec(seed).cells()
        outputs, errors = [], []
        t0 = time.perf_counter()
        for cell in cells:
            try:
                outputs.append(run_engine(topo, tables, cell, "flat"))
            except Exception as exc:  # a failing cell is counted, not fatal
                outputs.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        return Batch(wall, cells, outputs, 0.0, errors)

    def unit(self, seed: int, tracer=None) -> Batch:
        """Cold setup plus one batch; the wall covers both."""
        gc.collect()
        t0 = time.perf_counter()
        objs = self.setup(tracer)
        batch = self.run_batch(seed, objs)
        batch.wall_s = time.perf_counter() - t0
        return batch


def _windows(size: str, full: tuple, tiny: tuple) -> dict:
    warmup, measure, drain = full if size == "full" else tiny
    return dict(warmup=warmup, measure=measure, drain=drain)


def make_workloads(size: str = "full") -> dict:
    """The named workloads at ``size`` (``full`` or ``tiny``)."""
    full = size == "full"
    q7 = "polarfly:conc=2,q=7" if full else "polarfly:conc=2,q=3"

    # q7-sweeps, one batch of three specs through one sweep runner: the
    # Figure-9 regeneration (ugal-pf over a load ladder from low load to
    # past saturation), closed-loop collectives, and open-loop cells under
    # fault timelines.
    fig09_loads = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9) if full else (0.2, 0.6)
    fig09_windows = _windows(size, (600, 1200, 300), (40, 80, 20))
    collectives = COLLECTIVES if full else (COLLECTIVES[0], COLLECTIVES[-1])
    faults = FAULT_SPECS if full else FAULT_SPECS[:1]
    # The load axis of a closed-loop grid only multiplies seeds: three
    # replicas give the collectives a share of the batch comparable to
    # the faulted cells.  They are timing weight, not seed variety: the
    # min-routed collectives, and ugal-pf alltoall and incast (which never
    # divert), draw no random numbers, so 21 of their 30 cells read the
    # same on every workload seed.
    replicas = (0.0, 1.0, 2.0) if full else (0.0,)
    fault_loads = (0.3, 0.6) if full else (0.3,)
    fault_windows = _windows(size, (600, 1200, 300), (150, 150, 50))

    def q7_specs(seed):
        return [
            ExperimentSpec.grid(
                [q7], ["ugal-pf"], ["uniform", "perm1hop:seed=1"],
                loads=fig09_loads, root_seed=seed, **fig09_windows,
            ),
            ExperimentSpec.workload_grid(
                [q7], ["min", "ugal-pf"], list(collectives), loads=replicas,
                root_seed=seed,
            ),
            ExperimentSpec.fault_grid(
                [q7], ["min", "ugal-pf"], ["uniform"], list(faults),
                loads=fault_loads, root_seed=seed, **fault_windows,
            ),
        ]

    def q7_reference(seed):
        fig09 = ExperimentSpec(
            combos=(Combo(q7, "ugal-pf", "uniform"),), root_seed=seed,
            **_windows(size, (100, 200, 100), (20, 40, 10)),
        )
        combo = Combo(q7, "ugal-pf", workload=COLLECTIVES[0], faults=FAULT_SPECS[0])
        collective = ExperimentSpec(combos=(combo,), loads=(0.0,), root_seed=seed)
        return [fig09.cell(fig09.combos[0], 0.5), collective.cell(combo, 0.0)]

    # q53-scale: the large fabric where the kernel's decide scan dominates.
    q53 = "polarfly:conc=2,q=53" if full else "polarfly:conc=2,q=7"
    q53_windows = _windows(size, (20, 40, 20), (10, 20, 10))

    def q53_spec(seed):
        return ExperimentSpec.grid(
            [q53], ["min"], ["uniform"], loads=(0.1, 0.4), root_seed=seed,
            **q53_windows,
        )

    def q53_reference(seed):
        spec = ExperimentSpec(
            combos=(Combo(q53, "min", "uniform"),), root_seed=seed,
            warmup=3, measure=6, drain=3,
        )
        return [spec.cell(spec.combos[0], 0.4)]

    return {
        "q7-sweeps": SweepWorkload("q7-sweeps", q7, q7_specs, q7_reference),
        "q53-scale": ScaleWorkload("q53-scale", q53, q53_spec, q53_reference),
    }
