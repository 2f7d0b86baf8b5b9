"""Saturation and backpressure edge cases, engine-equivalent.

The nastiest corners of credit flow: full offered load with single-flit
VC buffers (every queue constantly backpressured), no-drain
measurement windows, and a degraded fabric with a concentration-0
router mixed in.  Both engines must agree bit-for-bit, and a fully
drained network must return every credit it borrowed.
"""

import numpy as np
import pytest

from repro.core import PolarFly
from repro.flitsim import (
    FlatSimulator,
    NetworkSimulator,
    SimConfig,
    UniformTraffic,
)
from repro.routing import (
    MinimalRouting,
    RoutingTables,
    UGALPFRouting,
    degraded_topology,
)
from repro.topologies.base import Topology


def drain_to_quiescence(sim, max_cycles=6000):
    """Step at zero load until nothing is left in flight."""
    saved, sim.load = sim.load, 0.0
    for _ in range(max_cycles):
        if isinstance(sim, FlatSimulator):
            if sim.live_flits() == 0:
                break
        else:
            if not any(sim.voq[r] for r in range(sim.topo.num_routers)) and not any(
                q for r in range(sim.topo.num_routers) for q in sim.src_q[r]
            ):
                break
        sim.step()
    sim.load = saved


def assert_identical(a, b):
    assert a.injected_flits == b.injected_flits
    assert a.ejected_flits == b.ejected_flits
    assert np.array_equal(a.latencies, b.latencies)
    assert np.array_equal(a.hop_counts, b.hop_counts)


@pytest.fixture(scope="module")
def pf():
    return PolarFly(5, concentration=2)


@pytest.fixture(scope="module")
def tables(pf):
    return RoutingTables(pf)


class TestSaturationBackpressure:
    def test_full_load_single_flit_vcs_engines_agree(
        self, pf, tables, flat_kernel
    ):
        # load=1.0 with vc_depth=1: every buffer is one flit deep, so
        # almost every grant is credit-blocked — the stress case for
        # the synchronous credit protocol.  drain=0 on top.
        cfg = SimConfig(vc_depth=1)
        policy = MinimalRouting(tables)
        runs = []
        for cls in (NetworkSimulator, FlatSimulator):
            sim = cls(pf, policy, UniformTraffic(pf), 1.0, config=cfg, seed=9)
            runs.append(sim.run(warmup=50, measure=200, drain=0))
        assert_identical(*runs)
        # Saturated: offered 1.0 can't be accepted with 1-deep VCs.
        assert runs[0].accepted_load < 1.0

    def test_no_credit_leaks_after_drain(self, pf, tables, flat_kernel):
        cfg = SimConfig(vc_depth=1)
        policy = MinimalRouting(tables)
        ref = NetworkSimulator(pf, policy, UniformTraffic(pf), 1.0, config=cfg, seed=9)
        flat = FlatSimulator(pf, policy, UniformTraffic(pf), 1.0, config=cfg, seed=9)
        for sim in (ref, flat):
            for _ in range(250):
                sim.step()
            drain_to_quiescence(sim)

        # Reference: every (port, vc) credit and injection credit back
        # to capacity.
        for r in range(pf.num_routers):
            for port_credits in ref.credits[r]:
                assert all(c == cfg.vc_depth for c in port_credits)
            assert all(c == cfg.vc_depth for c in ref.inj_credit[r])

        # Flat: identical invariant on the dense arrays; the packet
        # slot pool must also be fully recycled (memory stays
        # O(in-flight), not O(packets ever injected)).
        assert flat.live_flits() == 0
        fab = flat.fab
        valid = np.arange(max(fab.D, 1))[None, :] < fab.deg[:, None]
        assert (flat.credits[valid] == cfg.vc_depth).all()
        assert (flat.ep_credit == cfg.vc_depth).all()
        assert (flat.backlog == 0).all()
        assert (flat.voq_count == 0).all()
        assert int(flat._pslot_top[0]) == flat.pkt_cap
        assert flat.packets_injected > flat.pkt_cap // 2  # slots reused

    def test_degraded_topology_with_dark_router(self, pf, flat_kernel):
        # Remove a link, zero one router's concentration: a transit-only
        # router inside a degraded fabric.  Both engines must agree and
        # route around/through it.
        u = 0
        v = int(pf.graph.neighbors(u)[0])
        deg = degraded_topology(pf, [(u, v)])
        conc = deg.concentration.copy()
        dark = int(v)
        conc[dark] = 0
        mixed = Topology("pf5-deg-dark", deg.graph, conc)
        tables = RoutingTables(mixed)
        policy = UGALPFRouting(tables)
        cfg = SimConfig(num_vcs=max(4, policy.max_hops - 1), vc_depth=2)
        runs = []
        for cls in (NetworkSimulator, FlatSimulator):
            sim = cls(
                mixed, policy, UniformTraffic(mixed), 0.8, config=cfg, seed=4
            )
            runs.append(sim.run(warmup=60, measure=200, drain=150))
        assert_identical(*runs)
        # Traffic flowed despite the dark router and the missing link.
        assert runs[0].ejected_flits > 0

    def test_dark_router_receives_no_packets(self, pf, flat_kernel):
        # The concentration-0 router is never a destination; it may only
        # ever carry transit flits.
        conc = pf.concentration.copy()
        conc[3] = 0
        mixed = Topology("pf5-dark3", pf.graph, conc)
        tables = RoutingTables(mixed)
        sim = FlatSimulator(
            mixed, MinimalRouting(tables), UniformTraffic(mixed), 0.5, seed=2
        )
        sim.run(warmup=0, measure=300, drain=400)
        # All packets' destinations avoid the dark router: every
        # packet-slot row ever written holds a real destination != 3
        # (unused slots keep the -1 sentinel).
        assert sim.packets_injected > 0
        assert not (sim.pkt_dst == 3).any()
