"""Struct-of-arrays flit engine: the production simulator core.

Implements the cycle protocol of :mod:`repro.flitsim.engine` with flat
numpy state instead of per-flit Python objects.  Python keeps the parts
that draw random numbers or consult routing (injection, fault epoch
deltas, workload bookkeeping); feed and the router phase run as one C
pass of :mod:`repro.flitsim._kernel` over the very same arrays:

* **Flit pool** — flits are rows of preallocated int arrays (packet id,
  flit sequence number, hop index, ready cycle, next-pointer).  A free
  list recycles rows; queues are intrusive linked lists through the
  ``next`` column, so enqueue/dequeue never allocates.
* **Routes** — selected once per packet and stored in a flattened route
  buffer with per-packet offsets; per-flit state is just the hop index.
* **VOQs** — head/tail/count arrays over a dense
  ``(router, in_port, out_port)`` index (ejection is the last output
  column), giving O(1) enqueue, dequeue, and occupancy checks.
* **Credits** — one ``(router, out_port, vc)`` int array; injection
  credits one array over endpoints.
* **Arbitration** — per (router, output) round-robin pointers; the
  kernel scans input ports circularly from the pointer and skips every
  output whose backlog counter is zero.
* **Injection** — one Bernoulli draw per cycle across all endpoints and
  one batched destination draw (``TrafficPattern.dest_routers``), then
  the policy's batched ``select_routes``; the kernel chains the flits.
* **Congestion view** — ``output_occupancy`` is an O(1) read of the
  incrementally maintained per-output backlog counters plus credit debt.

The topology-dependent port geometry (a CSR port map — O(E), not the
seed's dense O(N^2) matrix) is memoized per topology object in
:func:`fabric_for`, so sweep workers that simulate many cells on one
topology (the runner's per-process topology memo keeps the object alive)
pay its construction once.

The engine has no cycle path without the kernel: a
:class:`FlatSimulator` built without one raises, and
:func:`~repro.flitsim.engine.make_simulator` builds the reference engine
instead.  Results are bit-identical to
:class:`repro.flitsim.reference.NetworkSimulator` for the same seed —
pinned by ``tests/test_flitsim_equivalence.py``.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.flitsim._kernel import load_kernel
from repro.flitsim.engine import (
    SimConfig,
    SimResult,
    SimulatorCore,
    make_fault_state,
    make_workload_state,
    validate_sim_args,
)
from repro.flitsim.traffic import TrafficPattern
from repro.routing.policies import RoutingPolicy, routes_as_matrix
from repro.topologies.base import Topology
from repro.utils.rng import make_rng

__all__ = ["FlatFabric", "FlatSimulator", "fabric_for"]

#: initial flit-pool capacity (rows); grows by doubling
_POOL_CAP = 4096

#: initial packet-table capacity; grows by doubling
_PKT_CAP = 1024


class FlatFabric:
    """Sparse, config-independent port geometry of one topology.

    Shared by every :class:`FlatSimulator` on the same topology object
    (see :func:`fabric_for`); everything here is read-only after build.

    The output port of ``u`` toward adjacent ``v`` is ``v``'s offset in
    ``u``'s sorted CSR neighbor slice, answered by a searchsorted over
    precomputed global edge keys (:meth:`ports_toward`) instead of the
    seed's dense O(N^2) ``port_mat`` — at q=79 (N=6321) that matrix
    alone was 320 MB; the CSR port map is O(E).  The congestion view
    (`output_occupancy`) reads ports through the same lookup, so the
    whole per-cycle state stays O(N x radix).  Port ids fit int16
    (radix << 2^15), which halves the gather traffic on ``rev_mat``.
    """

    def __init__(self, topo: Topology):
        graph = topo.graph
        n = graph.n
        deg = np.diff(graph.indptr).astype(np.int64)
        conc = np.asarray(topo.concentration, dtype=np.int64)
        D = int(deg.max()) if n else 0
        C = int(conc.max()) if n else 0
        if D >= np.iinfo(np.int16).max:
            raise ValueError(f"router radix {D} exceeds int16 port ids")

        self.n = n
        self.deg = deg
        self.conc = conc
        #: max link outputs; the ejection output is column ``D``
        self.D = D
        self.OE = D
        self.O = D + 1
        #: input ports per router: links 0..deg-1, injection deg..deg+p-1
        self.P_arr = deg + conc
        self.I = max(int(self.P_arr.max()) if n else 0, 1)

        cols = max(D, 1)
        self.nbr_mat = np.full((n, cols), -1, dtype=np.int64)
        self.rev_mat = np.full((n, cols), -1, dtype=np.int16)
        # CSR port map: neighbor slices are sorted, so the port of u
        # toward v is searchsorted position of key u*n+v among the
        # directed-edge keys (strictly increasing in CSR order) minus
        # u's slice start.  The C kernel runs the same lookup as a
        # per-row binary search over the bound indptr/indices.
        self.adj_indptr = graph.indptr
        self.adj_indices = graph.indices
        indptr, indices = graph.indptr, graph.indices
        if indices.size:
            src_e = np.repeat(np.arange(n, dtype=np.int64), deg)
            self.edge_keys = src_e * n + indices
            port_e = np.arange(indices.size, dtype=np.int64) - np.repeat(
                indptr[:-1], deg
            )
            self.nbr_mat[src_e, port_e] = indices
            # Reverse port of directed edge (u -> v) = port of v toward
            # u, one searchsorted over the mirrored keys.
            rev_port = (
                np.searchsorted(self.edge_keys, indices * n + src_e)
                - indptr[indices]
            )
            self.rev_mat[src_e, port_e] = rev_port.astype(np.int16)
        else:
            self.edge_keys = np.empty(0, dtype=np.int64)

        self.E = topo.num_endpoints
        self.ep_router = np.asarray(topo.endpoint_routers, dtype=np.int64)
        self.ep_off = np.asarray(topo.endpoint_offsets, dtype=np.int64)
        self.ep_inport = deg[self.ep_router] + (
            np.arange(self.E, dtype=np.int64) - self.ep_off[self.ep_router]
        )
        #: dense VOQ count: (router, in_port, out_port) triples
        self.NV = n * self.I * self.O

    def ports_toward(self, routers, next_hops) -> np.ndarray:
        """Output ports of ``routers`` toward adjacent ``next_hops``.

        One vectorized searchsorted over the global edge keys; callers
        guarantee adjacency (non-adjacent queries return an in-range but
        meaningless port, like the old dense matrix returned -1 — no
        caller ever used a non-adjacent lookup's value).
        """
        routers = np.asarray(routers, dtype=np.int64)
        keys = routers * self.n + np.asarray(next_hops, dtype=np.int64)
        return np.searchsorted(self.edge_keys, keys) - self.adj_indptr[routers]

    def port_toward(self, router: int, next_hop: int) -> int:
        """Scalar :meth:`ports_toward` for the event-time (cold) paths."""
        return int(self.ports_toward(router, next_hop))


_FABRIC_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def fabric_for(topo: Topology) -> FlatFabric:
    """The (memoized) :class:`FlatFabric` of ``topo``.

    Keyed weakly on the topology object: sweep workers memoize the
    topology per process, so repeated cells on it reuse one fabric.
    """
    fab = _FABRIC_MEMO.get(topo)
    if fab is None:
        fab = _FABRIC_MEMO[topo] = FlatFabric(topo)
    return fab


class FlatSimulator(SimulatorCore):
    """Struct-of-arrays engine for one (topology, routing, traffic) point.

    Drop-in replacement for the reference
    :class:`~repro.flitsim.reference.NetworkSimulator`: same constructor,
    same :meth:`~repro.flitsim.engine.SimulatorCore.run` contract, same
    :class:`~repro.routing.policies.CongestionView` surface, bit-identical
    :class:`~repro.flitsim.engine.SimResult` for the same seed.
    """

    def __init__(
        self,
        topo: Topology,
        policy: RoutingPolicy,
        traffic: "TrafficPattern | None",
        load: float,
        config: SimConfig = SimConfig(),
        seed=0,
        workload=None,
        faults=None,
    ):
        self._kernel = load_kernel()
        if self._kernel is None:
            raise RuntimeError(
                "FlatSimulator needs the C cycle kernel (cffi and a C "
                "compiler); make_simulator() uses the reference engine "
                "when it is missing"
            )
        self.topo = topo
        self.policy = policy
        self.traffic = traffic
        self.load = float(load)
        self.config = config
        self.rng = make_rng(seed)
        # Fault bookkeeping first: it ratchets policy.max_hops to the
        # degraded ceiling, which sizes the route stride and VC check.
        self._fault = make_fault_state(faults, topo, policy)
        validate_sim_args(topo, policy, load, config)
        self._wl = make_workload_state(workload, config, topo)

        fab = fabric_for(topo)
        self.fab = fab
        n, O = fab.n, fab.O
        V = config.num_vcs

        # Credit state: link outputs carry vc_depth per hop class;
        # padding columns (port >= deg) stay 0 and are never addressed.
        valid = np.arange(max(fab.D, 1))[None, :] < fab.deg[:, None]
        self.credits = np.zeros((fab.n, max(fab.D, 1), V), dtype=np.int64)
        self.credits[valid] = config.vc_depth
        self.ep_credit = np.full(fab.E, config.vc_depth, dtype=np.int64)

        # VOQ state: intrusive linked lists through the flit pool.
        self.voq_head = np.full(fab.NV, -1, dtype=np.int64)
        self.voq_tail = np.full(fab.NV, -1, dtype=np.int64)
        self.voq_count = np.zeros(fab.NV, dtype=np.int64)
        #: flits queued per (router, out) — the O(1) occupancy counters
        self.backlog = np.zeros(n * O, dtype=np.int64)
        #: round-robin pointers per (router, out)
        self.rr = np.zeros(n * O, dtype=np.int64)

        # Flit pool + free list.  The stack top lives in a one-element
        # array so the C kernel can mutate it in place.
        self.pool_cap = _POOL_CAP
        self.pool_pid = np.empty(self.pool_cap, dtype=np.int64)
        self.pool_seq = np.empty(self.pool_cap, dtype=np.int64)
        self.pool_hop = np.empty(self.pool_cap, dtype=np.int64)
        self.pool_ready = np.empty(self.pool_cap, dtype=np.int64)
        self.pool_next = np.empty(self.pool_cap, dtype=np.int64)
        self.free_stack = np.arange(self.pool_cap, dtype=np.int64)
        self._free_top = np.array([self.pool_cap], dtype=np.int64)

        # Packet table + route buffer, slot-recycled so memory stays
        # O(in-flight packets), not O(packets ever injected): each
        # packet occupies one row of the pkt_* arrays and one
        # fixed-stride row of the route buffer (stride = the policy's
        # worst-case route length), identified by a pool slot that is
        # freed when the tail flit ejects.
        self.route_stride = policy.max_hops + 1
        self.pkt_cap = _PKT_CAP
        self.pkt_t_created = np.empty(self.pkt_cap, dtype=np.int64)
        self.pkt_len = np.empty(self.pkt_cap, dtype=np.int64)
        self.pkt_dst = np.full(self.pkt_cap, -1, dtype=np.int64)
        #: owning workload message id per packet slot (-1 open loop)
        self.pkt_msg = np.full(self.pkt_cap, -1, dtype=np.int64)
        self.pkt_measured = np.zeros(self.pkt_cap, dtype=bool)
        self.route_buf = np.zeros(self.pkt_cap * self.route_stride, dtype=np.int64)
        self._pslot_stack = np.arange(self.pkt_cap, dtype=np.int64)
        self._pslot_top = np.array([self.pkt_cap], dtype=np.int64)
        #: monotone count of packets ever injected (slots are recycled)
        self.packets_injected = 0

        # Per-endpoint source FIFOs (linked lists in the pool).
        self.src_head = np.full(fab.E, -1, dtype=np.int64)
        self.src_tail = np.full(fab.E, -1, dtype=np.int64)

        self.now = 0
        self._hop_latency = config.link_latency + config.router_pipeline
        self.result: "SimResult | None" = None
        self._measuring = False
        self._stat = SimResult(load, 0, fab.E)

        # Layout of the optional per-link flit counter; the counter
        # stays None until :meth:`attach_link_telemetry`, so the kernel
        # sees a NULL pointer it never follows.
        self._link_nbr = fab.nbr_mat
        self._ltel_buf = None

        # Fault-mode state: per-(router, output-column) death mask and
        # outstanding-flit counts per packet slot (drops can retire a
        # packet out of tail order, so slot recycling counts flits).
        if self._fault is not None:
            self.dead_row = np.zeros(n * O, dtype=bool)
            self.pkt_live = np.zeros(self.pkt_cap, dtype=np.int64)
            self.pkt_damaged = np.zeros(self.pkt_cap, dtype=bool)

        # The C cycle kernel runs feed and the router phase in every
        # mode — open loop, closed loop, faults, and combined.  Workload
        # dependency bookkeeping and epoch-boundary fault deltas stay in
        # Python and communicate through the bound arrays and the
        # per-cycle ring buffers (tail_pids, drop_tail_pids).
        ffi = self._kernel.ffi
        # Grants per cycle are bounded by one per (router, link output)
        # plus the per-router ejection limit (≤ E + n), and per-cycle
        # drops by the feed slots (≤ E) plus the link grants — so
        # grant_cap caps both ring buffers.
        grant_cap = n * O + fab.E
        self._g_vq = np.empty(grant_cap, dtype=np.int64)
        self._g_f = np.empty(grant_cap, dtype=np.int64)
        self._tail_pids = np.empty(max(grant_cap, 1), dtype=np.int64)
        if self._fault is not None:
            self._drop_tails = np.empty(max(grant_cap, 1), dtype=np.int64)
            self._fcnt = np.zeros(2, dtype=np.int64)
        self._n_ej = ffi.new("int64_t *")
        self._st = ffi.new("SimState *")
        self._bind_kernel_state()

    # ------------------------------------------------------------------
    # CongestionView protocol
    # ------------------------------------------------------------------
    def output_occupancy(self, router: int, next_hop: int) -> int:
        """O(1) UGAL-L signal: credit debt + maintained VOQ backlog."""
        port = self.fab.port_toward(router, next_hop)
        return int(
            self.config.vc_depth
            - self.credits[router, port, 0]
            + self.backlog[router * self.fab.O + port]
        )

    def output_occupancies(self, routers, next_hops) -> np.ndarray:
        """Vectorized occupancy reads for batched route selection."""
        fab = self.fab
        ports = fab.ports_toward(routers, next_hops)
        return (
            self.config.vc_depth
            - self.credits[routers, ports, 0]
            + self.backlog[np.asarray(routers) * fab.O + ports]
        )

    # ------------------------------------------------------------------
    # Introspection (tests, conservation checks)
    # ------------------------------------------------------------------
    @property
    def free_top(self) -> int:
        """Free-list depth (pool rows not holding a live flit)."""
        return int(self._free_top[0])

    def live_flits(self) -> int:
        """Flits currently anywhere in the system (FIFOs + VOQs)."""
        return self.pool_cap - self.free_top

    # ------------------------------------------------------------------
    # Per-link telemetry (observability; never perturbs results)
    # ------------------------------------------------------------------
    def attach_link_telemetry(self) -> "np.ndarray":
        """The shared counter, also bound for the C kernel to increment."""
        ltel = super().attach_link_telemetry()
        if self._ltel_buf is None:
            self._ltel_buf = self._kernel.ffi.from_buffer("int64_t[]", ltel)
        return ltel

    def link_occupancy(self) -> np.ndarray:
        """Credit-derived buffered flits per link output, vectorized."""
        occ = self.config.port_capacity - self.credits.sum(axis=2)
        # Padding columns (port >= deg) hold 0 credits, which would read
        # as a full buffer.
        occ[self.fab.nbr_mat < 0] = 0
        return occ.ravel()

    # ------------------------------------------------------------------
    # C kernel plumbing
    # ------------------------------------------------------------------
    def _bind_kernel_state(self) -> None:
        """(Re)point the kernel's state struct at the current arrays.

        Called at construction and whenever a growable array is
        replaced; keeps the cffi buffer objects alive on the instance.
        Every binding asserts dtype and C-contiguity here, once — a
        future refactor that changes a buffer's layout fails loudly at
        bind time instead of silently mis-binding the C view.
        """
        ffi = self._kernel.ffi
        fab = self.fab
        st = self._st
        refs = []

        def bind(arr, dtype, ctype):
            if arr.dtype != dtype or not arr.flags.c_contiguous:
                raise TypeError(
                    f"kernel buffer must be C-contiguous {np.dtype(dtype)}, "
                    f"got {arr.dtype} "
                    f"(c_contiguous={arr.flags.c_contiguous})"
                )
            buf = ffi.from_buffer(ctype, arr)
            refs.append(buf)
            return buf

        def ptr(arr):
            return bind(arr, np.int64, "int64_t[]")

        def bptr(arr):
            # numpy bool is one byte; the kernel reads/writes int8.
            return bind(arr, np.bool_, "int8_t[]")

        st.n, st.E, st.I, st.O, st.OE = fab.n, fab.E, fab.I, fab.O, fab.OE
        st.Dp = max(fab.D, 1)
        st.V = self.config.num_vcs
        st.ps = self.config.packet_size
        st.hop_latency = self._hop_latency
        st.stride = self.route_stride
        st.deg, st.ports, st.conc = ptr(fab.deg), ptr(fab.P_arr), ptr(fab.conc)
        st.nbr = ptr(fab.nbr_mat)
        st.rev = bind(fab.rev_mat, np.int16, "int16_t[]")
        st.adj_indptr = ptr(fab.adj_indptr)
        st.adj_indices = ptr(fab.adj_indices)
        st.ep_router, st.ep_inport = ptr(fab.ep_router), ptr(fab.ep_inport)
        st.ep_off = ptr(fab.ep_off)
        st.voq_head, st.voq_tail = ptr(self.voq_head), ptr(self.voq_tail)
        st.voq_count = ptr(self.voq_count)
        st.backlog, st.rr, st.credits = (
            ptr(self.backlog), ptr(self.rr), ptr(self.credits),
        )
        st.pool_pid, st.pool_seq = ptr(self.pool_pid), ptr(self.pool_seq)
        st.pool_hop, st.pool_ready = ptr(self.pool_hop), ptr(self.pool_ready)
        st.pool_next = ptr(self.pool_next)
        st.src_head, st.src_tail = ptr(self.src_head), ptr(self.src_tail)
        st.ep_credit = ptr(self.ep_credit)
        st.pkt_len, st.pkt_dst = ptr(self.pkt_len), ptr(self.pkt_dst)
        st.route_buf = ptr(self.route_buf)
        st.pkt_free = ptr(self._pslot_stack)
        st.pkt_free_top = ptr(self._pslot_top)
        st.free_stack, st.free_top = ptr(self.free_stack), ptr(self._free_top)
        st.g_vq, st.g_f = ptr(self._g_vq), ptr(self._g_f)
        st.tail_pids = ptr(self._tail_pids)
        st.fault_mode = 0 if self._fault is None else 1
        if self._fault is not None:
            st.dead_row = bptr(self.dead_row)
            st.pkt_live = ptr(self.pkt_live)
            st.pkt_damaged = bptr(self.pkt_damaged)
            st.drop_tail_pids = ptr(self._drop_tails)
            st.fcnt = ptr(self._fcnt)
        else:
            st.dead_row = ffi.NULL
            st.pkt_live = ffi.NULL
            st.pkt_damaged = ffi.NULL
            st.drop_tail_pids = ffi.NULL
            st.fcnt = ffi.NULL
        # Link telemetry binds per cycle (measure window only); outside
        # it the kernel sees NULL and skips counting entirely.
        st.link_flits = ffi.NULL
        self._st_refs = refs

    # ------------------------------------------------------------------
    # Pool + table growth
    # ------------------------------------------------------------------
    def _grow_pool(self, min_extra: int) -> None:
        old = self.pool_cap
        extra = max(min_extra, old)
        cap = old + extra
        for name in ("pool_pid", "pool_seq", "pool_hop", "pool_ready", "pool_next"):
            arr = getattr(self, name)
            new = np.empty(cap, dtype=arr.dtype)
            new[:old] = arr
            setattr(self, name, new)
        top = self.free_top
        stack = np.empty(cap, dtype=np.int64)
        stack[:top] = self.free_stack[:top]
        stack[top : top + extra] = np.arange(old, cap)
        self.free_stack = stack
        self._free_top[0] = top + extra
        self.pool_cap = cap
        self._bind_kernel_state()

    def _release(self, ids: np.ndarray) -> None:
        top = self.free_top
        self.free_stack[top : top + ids.size] = ids
        self._free_top[0] = top + ids.size

    def _grow_pkt_pool(self, min_extra: int) -> None:
        old = self.pkt_cap
        extra = max(min_extra, old)
        cap = old + extra
        stride = self.route_stride
        for name, fill in (
            ("pkt_t_created", None), ("pkt_len", None), ("pkt_dst", -1),
            ("pkt_msg", -1),
        ):
            arr = getattr(self, name)
            new = np.empty(cap, dtype=np.int64) if fill is None else np.full(
                cap, fill, dtype=np.int64
            )
            new[:old] = arr
            setattr(self, name, new)
        measured = np.zeros(cap, dtype=bool)
        measured[:old] = self.pkt_measured
        self.pkt_measured = measured
        if self._fault is not None:
            live = np.zeros(cap, dtype=np.int64)
            live[:old] = self.pkt_live
            self.pkt_live = live
            damaged = np.zeros(cap, dtype=bool)
            damaged[:old] = self.pkt_damaged
            self.pkt_damaged = damaged
        route_buf = np.zeros(cap * stride, dtype=np.int64)
        route_buf[: old * stride] = self.route_buf
        self.route_buf = route_buf
        top = int(self._pslot_top[0])
        stack = np.empty(cap, dtype=np.int64)
        stack[:top] = self._pslot_stack[:top]
        stack[top : top + extra] = np.arange(old, cap)
        self._pslot_stack = stack
        self._pslot_top[0] = top + extra
        self.pkt_cap = cap
        self._bind_kernel_state()

    def _alloc_pkt_slots(self, k: int) -> np.ndarray:
        if int(self._pslot_top[0]) < k:
            self._grow_pkt_pool(k - int(self._pslot_top[0]))
        top = int(self._pslot_top[0]) - k
        self._pslot_top[0] = top
        return self._pslot_stack[top : top + k].copy()

    # ------------------------------------------------------------------
    # Injection (protocol step 1)
    # ------------------------------------------------------------------
    def _inject_packets(self, srcs, dsts, eps, pkt_mid=None) -> None:
        """Route, slot and queue one cycle's new packets.

        What both injection modes share once sources and destinations
        are drawn: one batched ``select_routes`` call, slot allocation,
        route-row/metadata fill, the injected-flit accounting, and the
        kernel's ``kinject``, which chains each packet's flits onto the
        source FIFO of its endpoint ``eps[j]`` in order.
        """
        routes = self.policy.select_routes(srcs, dsts, self.rng, congestion=self)
        mat, lens = routes_as_matrix(routes)
        k = lens.size
        max_len = int(lens.max())
        if max_len > self.route_stride:
            raise ValueError(
                f"route of {max_len - 1} hops exceeds the policy's "
                f"declared max_hops={self.policy.max_hops}"
            )
        slots = self._alloc_pkt_slots(k)
        route_rows = self.route_buf.reshape(self.pkt_cap, self.route_stride)
        # The matrix may carry padding columns wider than any surviving
        # route; only columns within the slot stride are meaningful.
        width = min(mat.shape[1], self.route_stride)
        route_rows[slots, :width] = mat[:, :width]
        self.pkt_len[slots] = lens
        self.pkt_dst[slots] = mat[np.arange(k), lens - 1]
        self.pkt_t_created[slots] = self.now
        if pkt_mid is not None:
            self.pkt_msg[slots] = pkt_mid
        if self._fault is not None:
            self.pkt_live[slots] = self.config.packet_size
            self.pkt_damaged[slots] = False
        self.pkt_measured[slots] = self._measuring
        self.packets_injected += k
        ps = self.config.packet_size
        if self._measuring:
            self._stat.injected_flits += k * ps
        if self.free_top < k * ps:
            self._grow_pool(k * ps - self.free_top)
        ffi = self._kernel.ffi
        self._kernel.lib.kinject(
            self._st,
            self.now,
            k,
            ffi.from_buffer("int64_t[]", slots),
            ffi.from_buffer("int64_t[]", np.ascontiguousarray(eps)),
        )

    def _inject(self) -> None:
        prob = self.load / self.config.packet_size
        if prob <= 0.0:
            return
        rng = self.rng
        fab = self.fab
        winners = np.flatnonzero(rng.random(fab.E) < prob)
        if winners.size == 0:
            return
        ft = self._fault
        if ft is not None and ft.any_dead_router:
            # The Bernoulli draw above always covers every endpoint (the
            # stream is failure-independent); dead ones just can't win.
            winners = winners[ft.ep_alive[winners]]
            if winners.size == 0:
                return
        srcs = fab.ep_router[winners]
        dsts = self.traffic.dest_routers(srcs, rng)
        if ft is not None and ft.any_dead_router:
            keep = ft.router_alive[dsts]
            if not keep.all():
                ft.note_blackholed(int((~keep).sum()))
                winners, srcs, dsts = winners[keep], srcs[keep], dsts[keep]
                if winners.size == 0:
                    return
        self._inject_packets(srcs, dsts, winners)

    def _inject_workload(self) -> None:
        """Closed-loop protocol step 1.

        Drains the ready queue into packets (message-major,
        packet-minor), one batched route selection for the cycle, then
        appends every packet's flit chain to the FIFO of its
        round-robin-assigned endpoint; several packets may land on one
        endpoint in the same cycle, which Bernoulli injection never
        produces, and keep their injection order there.
        """
        st = self._wl
        ft = self._fault
        mids = st.pop_ready()
        if ft is not None:
            if ft.any_dead_router and mids.size:
                mids = ft.filter_messages(
                    mids, st.workload.src[mids], st.workload.dst[mids],
                    st.msg_pkts[mids],
                )
            # Lost packets re-enter ahead of new messages, in drop order.
            rt = ft.pop_retransmits(st.workload)
            if rt.size == 0 and mids.size == 0:
                return
            pkt_mid = np.concatenate([rt, np.repeat(mids, st.msg_pkts[mids])])
        else:
            if mids.size == 0:
                return
            pkt_mid = np.repeat(mids, st.msg_pkts[mids])
        if pkt_mid.size == 0:
            return
        srcs = st.workload.src[pkt_mid]
        dsts = st.workload.dst[pkt_mid]
        eps = self.fab.ep_off[srcs] + st.next_endpoints(srcs)
        self._inject_packets(srcs, dsts, eps, pkt_mid=pkt_mid)

    # ------------------------------------------------------------------
    # Fault phase (protocol step 0): masks, drops, and route repair
    # ------------------------------------------------------------------
    def _drop_flit_rows(self, rows: np.ndarray, pids: np.ndarray) -> None:
        """Account and release dropped flit rows (array order = drop order)."""
        ft = self._fault
        ft.note_flit_drops(rows.size)
        self.pkt_damaged[pids] = True
        tails = self.pool_seq[rows] == self.config.packet_size - 1
        if tails.any():
            ft.note_tail_drops(self.pkt_msg[pids[tails]])
        self._release(rows)
        self._retire_packets(pids)

    def _retire_packets(self, pids: np.ndarray) -> None:
        """Decrement outstanding-flit counts; recycle exhausted slots."""
        np.subtract.at(self.pkt_live, pids, 1)
        u = np.unique(pids)
        done = u[self.pkt_live[u] == 0]
        if done.size:
            top = int(self._pslot_top[0])
            self._pslot_stack[top : top + done.size] = done
            self._pslot_top[0] = top + done.size

    def _drop_vq(self, r: int, in_port: int, out: int, return_credit: bool) -> None:
        """Drop one VOQ wholesale, front to back (event-time drops).

        Same rule-1/rule-2 credit semantics as the reference engine's
        ``_drop_queue`` — the canonical order both engines share.
        """
        fab = self.fab
        vq = (r * fab.I + in_port) * fab.O + out
        f = int(self.voq_head[vq])
        if f < 0:
            return
        chain = []
        while f >= 0:
            chain.append(f)
            f = int(self.pool_next[f])
        rows = np.asarray(chain, dtype=np.int64)
        self.voq_head[vq] = -1
        self.voq_tail[vq] = -1
        self.voq_count[vq] = 0
        self.backlog[r * fab.O + out] -= rows.size
        if return_credit:
            deg = int(fab.deg[r])
            if in_port < deg:
                upstream = int(fab.nbr_mat[r, in_port])
                up_port = fab.port_toward(upstream, r)
                vcs = np.minimum(
                    self.pool_hop[rows] - 1, self.config.num_vcs - 1
                )
                np.add.at(self.credits, (upstream, up_port, vcs), 1)
            else:
                self.ep_credit[int(fab.ep_off[r]) + in_port - deg] += rows.size
        self._drop_flit_rows(rows, self.pool_pid[rows])

    def _apply_fault_delta(self, delta) -> None:
        """Apply one epoch transition in the canonical order."""
        fab = self.fab
        depth = self.config.vc_depth
        self.policy.retable(delta.tables)
        self._fault.note_mark(self.now, len(self._stat.latencies))
        for u, v in delta.down_links:
            for r, nbr in ((u, v), (v, u)):
                p = fab.port_toward(r, nbr)
                # Rule 1: nothing may travel toward the dead link.
                for in_port in range(int(fab.P_arr[r])):
                    self._drop_vq(r, in_port, p, return_credit=True)
                # Rule 2: the link's wire and input buffer are lost.
                for out in list(range(int(fab.deg[r]))) + [fab.OE]:
                    self._drop_vq(r, p, out, return_credit=False)
                self.dead_row[r * fab.O + p] = True
        for r in delta.down_routers:
            # Incident links died above; drop the residue (injection
            # inputs) and the endpoints' source FIFOs.
            for in_port in range(int(fab.P_arr[r])):
                for out in list(range(int(fab.deg[r]))) + [fab.OE]:
                    self._drop_vq(r, in_port, out, return_credit=False)
            for e in range(int(fab.ep_off[r]), int(fab.ep_off[r + 1])):
                f = int(self.src_head[e])
                if f < 0:
                    continue
                chain = []
                while f >= 0:
                    chain.append(f)
                    f = int(self.pool_next[f])
                rows = np.asarray(chain, dtype=np.int64)
                self.src_head[e] = -1
                self.src_tail[e] = -1
                self._drop_flit_rows(rows, self.pool_pid[rows])
            self.dead_row[r * fab.O + fab.OE] = True
        for u, v in delta.up_links:
            for r, nbr in ((u, v), (v, u)):
                p = fab.port_toward(r, nbr)
                # Death emptied the downstream input buffer, so full
                # depth is exact — credit conservation holds.
                self.credits[r, p, :] = depth
                self.dead_row[r * fab.O + p] = False
        for r in delta.up_routers:
            self.ep_credit[int(fab.ep_off[r]) : int(fab.ep_off[r + 1])] = depth
            self.dead_row[r * fab.O + fab.OE] = False

    def _kernel_cycle(self) -> None:
        """Feed + route phase in one C pass (same protocol, same arrays).

        The C side reports completions through the ``tail_pids`` ring
        buffer (grant order — the latency-recording order) and, in fault
        mode, drops through ``drop_tail_pids``/``fcnt`` (drop order:
        feed drops endpoint-ascending, then wire kills in grant order);
        the notifications below follow the reference engine's order —
        flit/tail drops first, then workload completions, then damaged
        deliveries.
        """
        lib = self._kernel.lib
        ft = self._fault
        if ft is not None:
            self._fcnt[:] = 0
        if self._ltel_buf is not None:
            # Counters are live only inside the measure window; outside
            # it the kernel sees NULL and skips the increment branch.
            self._st.link_flits = (
                self._ltel_buf if self._measuring else self._kernel.ffi.NULL
            )
        lib.kfeed(self._st, self.now)
        n_tail = lib.kroute(self._st, self.now, self._n_ej)
        n_ej = self._n_ej[0]
        if ft is not None:
            dropped, tail_drops = int(self._fcnt[0]), int(self._fcnt[1])
            if dropped:
                ft.note_flit_drops(dropped)
            if tail_drops:
                ft.note_tail_drops(self.pkt_msg[self._drop_tails[:tail_drops]])
        if n_ej and self._measuring:
            self._stat.ejected_flits += n_ej
        if n_tail:
            done = self._tail_pids[:n_tail]
            measured = done[self.pkt_measured[done]]
            if measured.size:
                self._stat.latencies.extend(
                    (self.now - self.pkt_t_created[measured]).tolist()
                )
                self._stat.hop_counts.extend((self.pkt_len[measured] - 1).tolist())
            if self._wl is not None:
                self._wl.note_tails(
                    self.pkt_msg[done],
                    int((self.pkt_len[done] - 1).sum())
                    * self.config.packet_size,
                )
            if ft is not None:
                dmg = int(self.pkt_damaged[done].sum())
                if dmg:
                    ft.note_damaged_deliveries(dmg)

    def step(self) -> None:
        """Advance the simulation by one cycle."""
        if self._fault is not None:
            delta = self._fault.advance(self.now)
            if delta is not None:
                self._apply_fault_delta(delta)
        if self._wl is not None:
            self._inject_workload()
        else:
            self._inject()
        self._kernel_cycle()
        if self._wl is not None:
            self._wl.commit(self.now)
        self.now += 1
