"""Self-time arithmetic and span recording of the traced run."""

import numpy as np
import pytest

from bench_trace import SELF_TIME_METRICS, Tracer, layer_metrics, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) > a [10, 40) > a1 [15, 25);  root > b [50, 70)
    parent = [-1, 0, 1, 0]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 70]
    assert self_times(parent, start, end).tolist() == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    # children [10, 30) and [20, 50) cover [10, 50): 40 of the root's 100
    parent = [-1, 0, 0]
    start = [0, 10, 20]
    end = [100, 30, 50]
    assert self_times(parent, start, end).tolist() == [60, 20, 30]


def test_self_time_clips_children_to_the_parent():
    parent = [-1, 0]
    start = [10, 0]
    end = [20, 15]
    assert self_times(parent, start, end)[0] == 5


def test_self_times_sum_to_the_roots():
    rng = np.random.default_rng(3)
    tracer = Tracer()
    for _ in range(50):
        with tracer.span("experiments.runner.cell"):
            for _ in range(int(rng.integers(0, 4))):
                with tracer.span("flitsim.engine.step"):
                    pass
    cols = tracer.arrays()
    roots = cols["parent"] < 0
    total = (cols["end"][roots] - cols["start"][roots]).sum()
    assert self_times(cols["parent"], cols["start"], cols["end"]).sum() == total


class _Layer:
    def work(self, n):
        return n * 2


def test_wrap_records_spans_and_uninstall_restores():
    original = _Layer.__dict__["work"]
    tracer = Tracer()
    seen = []
    tracer.wrap(_Layer, "work", "flitsim.engine.step",
                after=lambda depth, args, kwargs, result: seen.append((depth, result)))
    assert _Layer().work(3) == 6
    tracer.uninstall()
    assert _Layer.__dict__["work"] is original
    assert _Layer().work(1) == 2
    assert len(tracer.start) == 1 and seen == [(0, 6)]


def test_layers_plus_remainder_account_for_the_wall():
    tracer = Tracer()
    with tracer.span("experiments.runner.sweep"):
        with tracer.span("experiments.runner.cell"):
            with tracer.span("flitsim.engine.step"):
                pass
    cols = tracer.arrays()
    wall = (cols["end"].max() - cols["start"].min()) / 1e9 + 0.25
    metrics = layer_metrics(tracer, wall)
    layers = sum(metrics[m] for m in SELF_TIME_METRICS.values())
    assert layers + metrics["tracing.unattributed_s"] == pytest.approx(wall)
    assert metrics["tracing.unattributed_s"] == pytest.approx(0.25, abs=1e-3)
    assert metrics["flitsim.engine.steps"] == 1


class _Outer:
    def __init__(self):
        self.inner = _Inner()

    def work(self, n):
        return self.inner.work(n) + 1


class _Inner:
    def work(self, n):
        return n


def test_depth_counts_same_name_spans_of_other_wrappers():
    tracer = Tracer()
    depths = []
    hook = lambda depth, args, kwargs, result: depths.append(depth)
    tracer.wrap(_Outer, "work", "routing.policies.select", hook)
    tracer.wrap(_Inner, "work", "routing.policies.select", hook)
    try:
        _Outer().work(1)
        _Inner().work(1)
    finally:
        tracer.uninstall()
    assert depths == [1, 0, 0]


class _Occupied:
    """Every output looks full, so UGAL-PF weighs a detour for each packet."""

    def output_occupancies(self, routers, next_hops):
        return np.full(len(routers), 8, dtype=np.int64)

    def output_capacity(self):
        return 4


def test_composite_policy_counts_each_packet_once():
    from bench_trace import install_layer_spans
    from repro.experiments import POLICIES, TOPOLOGIES
    from repro.routing.tables import RoutingTables

    tables = RoutingTables(TOPOLOGIES.create("polarfly:q=3"))
    policy = POLICIES.create("ugal-pf", tables)
    n = tables.dist.shape[0]
    srcs = np.repeat(np.arange(n), n)
    dsts = np.tile(np.arange(n), n)
    tracer = Tracer()
    install_layer_spans(tracer)
    try:
        policy.select_routes(srcs, dsts, np.random.default_rng(0), _Occupied())
    finally:
        tracer.uninstall()
    cols = tracer.arrays()
    select = cols["name"] == tracer.names.index("routing.policies.select")
    assert select.sum() > 1  # the candidate selections were wrapped too
    assert tracer.counters["routing.policies.packets"] == srcs.size
