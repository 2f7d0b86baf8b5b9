"""Checked invariant behind the C kernel's idle-output skip.

The kernel's decide loop skips every (router, output) row whose
``backlog`` counter is zero.  That is sound only if the counter always
equals the flits queued in the row's VOQs, summed over input ports: then
a skipped row has no candidate, so no grant and no round-robin update is
lost.  These tests run the flat engine on PolarFly q=7 and check the
identity after every cycle — open loop, under a fault timeline (whose
epoch deltas drop whole VOQs from Python) and in a closed-loop workload.
"""

import numpy as np
import pytest

from repro.core import PolarFly
from repro.experiments import FAULTS, POLICIES, WORKLOADS
from repro.experiments.runner import auto_sim_config
from repro.faults import prepare_fault_policy
from repro.flitsim import FlatSimulator
from repro.flitsim.traffic import UniformTraffic
from repro.routing.tables import RoutingTables


@pytest.fixture(scope="module")
def pf():
    return PolarFly(7, concentration=2)


@pytest.fixture(scope="module")
def tables(pf):
    return RoutingTables(pf)


class BacklogProbe:
    """Run-loop probe asserting ``backlog == Σ_in voq_count`` every cycle."""

    sample_every = 1
    window = 1 << 30  # one window: close() runs once, after the last cycle
    series = None

    def __init__(self):
        self.cycles = 0
        self.busy_rows = 0

    def begin(self, sim):
        self.sample(sim)

    def sample(self, sim):
        fab = sim.fab
        queued = sim.voq_count.reshape(fab.n, fab.I, fab.O).sum(axis=1).ravel()
        assert np.array_equal(sim.backlog, queued), f"cycle {sim.now}"
        self.cycles += 1
        self.busy_rows = max(self.busy_rows, int(np.count_nonzero(queued)))

    def close(self, sim, k):
        pass


def build(pf, tables, policy_spec, traffic=None, load=0.0, fault_spec=None,
          workload_spec=None):
    policy = POLICIES.create(policy_spec, tables)
    faults = None
    if fault_spec is not None:
        faults = FAULTS.create(fault_spec, pf)
        prepare_fault_policy(policy, faults, pf)
    workload = WORKLOADS.create(workload_spec, pf) if workload_spec else None
    return FlatSimulator(
        pf, policy, traffic, load, config=auto_sim_config(policy), seed=5,
        faults=faults, workload=workload,
    )


def test_backlog_matches_voqs_open_loop(pf, tables, flat_kernel):
    sim = build(pf, tables, "ugal-pf", UniformTraffic(pf), 0.9)
    probe = BacklogProbe()
    sim._run(measure=600, probe=probe)
    assert probe.cycles == 601
    assert probe.busy_rows > 0


def test_backlog_matches_voqs_under_faults(pf, tables, flat_kernel):
    sim = build(
        pf, tables, "ugal-pf", UniformTraffic(pf), 0.5,
        fault_spec="mtbf:count=3,mtbf=250,mttr=200,seed=2,start=150",
    )
    # Count the flits the epoch deltas drop from queues in Python.
    drops = []
    drop_vq = sim._drop_vq

    def counting_drop_vq(r, in_port, out, return_credit):
        before = int(sim.voq_count.sum())
        drop_vq(r, in_port, out, return_credit)
        drops.append(before - int(sim.voq_count.sum()))

    sim._drop_vq = counting_drop_vq
    probe = BacklogProbe()
    sim._run(measure=800, probe=probe)
    assert probe.cycles == 801
    assert sim._fault.applied_events > 0
    assert sum(drops) > 0, "epoch deltas must drop queued flits"


def test_backlog_matches_voqs_workload(pf, tables, flat_kernel):
    sim = build(pf, tables, "min", workload_spec="alltoall:size=8")
    probe = BacklogProbe()
    res = sim._run(max_cycles=20_000, probe=probe)
    assert res.finished
    assert probe.cycles == res.cycles + 1
    assert probe.busy_rows > 0
