"""In-memory span tracing for the traced benchmark run.

The tracer wraps the public entry points of each layer (routing tables,
policies, traffic, the flat engine's step, workload and fault state, the
sweep runner and the result cache) from the outside: the program under
test carries no instrumentation of its own.  Spans live in flat integer
arrays while the run is going and are analysed and written out only after
it ends.

A span's *self time* is its duration minus the part of its interval that
its direct children cover.  Self times of all spans sum to the union of
the root spans, so the per-layer numbers plus the unattributed remainder
add up to the traced wall exactly.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

_MISSING = object()

#: span name -> per-layer metric reporting its summed self time
SELF_TIME_METRICS = {
    "topologies.build": "topologies.build_s",
    "routing.tables.build": "routing.tables.build_s",
    "routing.tables.path_cache": "routing.tables.path_cache_s",
    "flitsim.fabric.build": "flitsim.fabric.build_s",
    "flitsim.kernel.load": "flitsim.kernel.load_s",
    "flitsim.engine.step": "flitsim.engine.step_self_s",
    "routing.policies.select": "routing.policies.select_s",
    "flitsim.traffic.dest": "flitsim.traffic.dest_s",
    "flitsim.congestion.occupancy": "flitsim.congestion.occupancy_s",
    "workloads.state.bookkeeping": "workloads.state.bookkeeping_s",
    "faults.state.advance": "faults.state.advance_s",
    "faults.epochs": "faults.epochs_s",
    "experiments.runner.cell": "experiments.runner.cell_self_s",
    "experiments.runner.simulate": "experiments.runner.simulate_self_s",
    "experiments.runner.sweep": "experiments.runner.sweep_overhead_s",
    "experiments.cache.put": "experiments.cache.put_s",
}

#: every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_TIME_METRICS.values()},
    "flitsim.engine.steps": "count",
    "flitsim.engine.step_us_p50": "us",
    "flitsim.engine.step_us_p99": "us",
    "routing.policies.packets": "count",
    "routing.policies.select_us_per_packet": "us",
    "routing.policies.nonminimal_share": "ratio",
    "experiments.cache.puts": "count",
    "tracing.unattributed_s": "s",
    "tracing.overhead_ratio": "ratio",
}


class Tracer:
    """Records nested spans of one thread into flat arrays.

    ``wrap`` replaces an attribute (a method, a module-level function or
    an instance attribute) by a span-recording wrapper; ``uninstall``
    puts every original back.  Counters hold the per-boundary counts
    (packets routed, non-minimal routes chosen, cache puts).
    """

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self._depth: list = []  # name id -> spans of that name now open
        self.counters: dict = {}
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self._depth[nid] += 1
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``after(depth, args, kwargs, result)`` runs once the span is
        closed, outside its interval; ``depth`` is the number of
        enclosing ``name`` spans, whichever wrapper or block opened
        them, so a hook can count outermost calls only.
        """
        raw = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        nid = self._name_id(name)
        depth = self._depth
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            outer = depth[nid]
            idx = open_(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(outer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put back every attribute :meth:`wrap` replaced."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def arrays(self) -> dict:
        """The recorded spans as numpy columns (times in ns)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans out (``.npz``: span-name table plus columns)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent, start, end) -> np.ndarray:
    """Per-span self time: duration minus the union of direct children.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes negative.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    own = end - start
    covered = np.zeros_like(own)
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    current, reach = -1, 0
    for i in order.tolist():
        p = int(parent[i])
        lo = max(int(start[i]), int(start[p]))
        hi = min(int(end[i]), int(end[p]))
        if p != current:
            current, reach = p, lo
        lo = max(lo, reach)
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return own - covered


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced unit whose wall was ``wall_s``."""
    cols = tracer.arrays()
    self_ns = self_times(cols["parent"], cols["start"], cols["end"])
    by_name = np.bincount(cols["name"], weights=self_ns, minlength=len(tracer.names))
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    for nid, name in enumerate(tracer.names):
        out[SELF_TIME_METRICS[name]] = float(by_name[nid]) / 1e9
    steps = np.zeros(0)
    if "flitsim.engine.step" in tracer.names:
        sel = cols["name"] == tracer.names.index("flitsim.engine.step")
        steps = (cols["end"][sel] - cols["start"][sel]) / 1e3
    out["flitsim.engine.steps"] = int(steps.size)
    out["flitsim.engine.step_us_p50"] = float(np.percentile(steps, 50)) if steps.size else 0.0
    out["flitsim.engine.step_us_p99"] = float(np.percentile(steps, 99)) if steps.size else 0.0
    packets = tracer.counters.get("routing.policies.packets", 0)
    out["routing.policies.packets"] = packets
    out["routing.policies.select_us_per_packet"] = (
        out["routing.policies.select_s"] * 1e6 / packets if packets else 0.0
    )
    out["routing.policies.nonminimal_share"] = (
        tracer.counters.get("routing.policies.nonminimal", 0) / packets
        if packets else 0.0
    )
    out["experiments.cache.puts"] = tracer.counters.get("experiments.cache.puts", 0)
    out["tracing.unattributed_s"] = wall_s - float(self_ns.sum()) / 1e9
    return out


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.faults as faults_pkg
    from repro.experiments import TOPOLOGIES
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache
    from repro.faults import state as fault_state
    from repro.flitsim import flatcore
    from repro.flitsim.traffic import TrafficPattern
    from repro.routing.policies import RoutingPolicy, routes_as_matrix
    from repro.routing.tables import RoutingTables
    from repro.workloads.state import WorkloadState

    def count_routes(depth, args, kwargs, routes):
        if depth:
            return  # an inner candidate selection of a composite policy
        policy, srcs, dsts = args[0], args[1], args[2]
        _, lens = routes_as_matrix(routes)
        tracer.count("routing.policies.packets", lens.size)
        if lens.size:
            srcs = np.asarray(srcs, dtype=np.int64)
            dsts = np.asarray(dsts, dtype=np.int64)
            minimal = np.asarray(policy.tables.dist[srcs, dsts]) + 1
            tracer.count("routing.policies.nonminimal", int((lens > minimal).sum()))

    def count_put(depth, args, kwargs, result):
        tracer.count("experiments.cache.puts")

    tracer.wrap(TOPOLOGIES, "create", "topologies.build")
    tracer.wrap(RoutingTables, "__init__", "routing.tables.build")
    tracer.wrap(flatcore, "fabric_for", "flitsim.fabric.build")
    tracer.wrap(flatcore, "load_kernel", "flitsim.kernel.load")
    tracer.wrap(flatcore.FlatSimulator, "step", "flitsim.engine.step")
    tracer.wrap(
        flatcore.FlatSimulator, "output_occupancies",
        "flitsim.congestion.occupancy",
    )
    for cls in _with_own(RoutingPolicy, "select_routes"):
        tracer.wrap(cls, "select_routes", "routing.policies.select", count_routes)
    for cls in _with_own(TrafficPattern, "dest_routers"):
        tracer.wrap(cls, "dest_routers", "flitsim.traffic.dest")
    for attr in ("pop_ready", "next_endpoints", "note_tails", "commit"):
        tracer.wrap(WorkloadState, attr, "workloads.state.bookkeeping")
    tracer.wrap(fault_state.FaultState, "advance", "faults.state.advance")
    tracer.wrap(fault_state.FaultState, "__init__", "faults.epochs")
    tracer.wrap(faults_pkg, "prepare_fault_policy", "faults.epochs")
    tracer.wrap(runner, "run_cell", "experiments.runner.cell")
    tracer.wrap(runner, "simulate_point", "experiments.runner.simulate")
    tracer.wrap(runner, "simulate_workload", "experiments.runner.simulate")
    tracer.wrap(runner.SweepRunner, "run", "experiments.runner.sweep")
    tracer.wrap(ResultCache, "put", "experiments.cache.put", count_put)


def _with_own(base: type, attr: str) -> list:
    """``base`` and its subclasses that define ``attr`` themselves."""
    seen, todo, out = set(), [base], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in vars(cls):
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out
