"""Telemetry: per-link flit counts, queue-depth sampling, time series.

Counters a network operator would scrape — flits carried per directed
link, buffer occupancy samples, derived hot-spot reports — and the
windowed time series of :mod:`repro.obs.timeseries`.  Used by the
adversarial-traffic analyses to show *where* min-path routing
concentrates load (the mechanistic story behind Figure 9), and by
windowed sweep cells to show *when*.

Nothing here runs cycles.  Each driver builds a probe and hands it to
the engine's one run loop (``SimulatorCore._run``), which calls it
during the measure phase.  Both engines keep one cumulative per-link
grant counter (``attach_link_telemetry()`` / ``link_flit_counts()``):
a link grant counts during the measure window only, before any fault
doom filtering, in the reference engine's forward step and the flat
engine's C kernel alike.  A probe reads link counts as deltas between
snapshots of that counter and samples credit-derived occupancy through
``link_occupancy()``.  Per-link counts, occupancy samples and window
records therefore agree bit-exactly across the two engines (pinned by
``tests/test_telemetry_flat.py`` and ``tests/test_timeseries.py``),
which makes telemetry usable at scales where the reference engine is
too slow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flitsim.engine import SimulatorCore
from repro.obs.timeseries import TimeSeriesCollector, WindowSeries

__all__ = [
    "LinkTelemetry",
    "run_with_telemetry",
    "run_with_timeseries",
    "run_workload_with_timeseries",
]


@dataclass
class LinkTelemetry:
    """Per-directed-link flit counts and occupancy statistics."""

    cycles: int
    #: total directed links in the topology (idle ones count in stats)
    num_directed_links: int = 0
    #: {(u, v): flits sent u->v}
    link_flits: dict = field(default_factory=dict)
    #: sampled mean occupancy per directed link
    mean_occupancy: dict = field(default_factory=dict)

    def utilization(self, u: int, v: int) -> float:
        """Fraction of cycles link ``u -> v`` carried a flit."""
        return self.link_flits.get((u, v), 0) / max(self.cycles, 1)

    def max_utilization(self) -> tuple[tuple[int, int], float]:
        """The hottest directed link and its utilization."""
        if not self.link_flits:
            return ((-1, -1), 0.0)
        link = max(self.link_flits, key=self.link_flits.get)
        return link, self.utilization(*link)

    def _all_link_loads(self) -> np.ndarray:
        """Flit loads over the full directed-link universe (idle = 0).

        The single universe both :meth:`utilization_histogram` and
        :meth:`gini` compute over: every directed link of the topology
        when ``num_directed_links`` is set, falling back to the observed
        links (floor 1) when it was left 0.
        """
        n = max(self.num_directed_links, len(self.link_flits), 1)
        loads = np.zeros(n, dtype=float)
        vals = np.fromiter(self.link_flits.values(), dtype=float,
                           count=len(self.link_flits))
        loads[: vals.size] = vals
        return loads

    def utilization_histogram(self, bins=10) -> tuple[np.ndarray, np.ndarray]:
        """Histogram over all directed links' utilizations.

        Covers *every* directed link of the topology — idle links land
        in the zero bin — so the counts sum to ``num_directed_links``
        (or to the number of observed links if that field was left 0).
        """
        utils = self._all_link_loads() / max(self.cycles, 1)
        return np.histogram(utils, bins=bins, range=(0, 1))

    def gini(self) -> float:
        """Gini coefficient of link load — 0 is perfectly balanced.

        Computed over *all* directed links of the topology, including the
        idle ones (the same universe as :meth:`utilization_histogram`):
        adversarial patterns under minimal routing leave most links dark
        while saturating a few, which is exactly the imbalance this
        measures — scoring only the observed links would miss it.
        """
        loads = self._all_link_loads()
        loads.sort()
        if loads.sum() == 0:
            return 0.0
        n = loads.size
        cum = np.cumsum(loads)
        return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


class _Probe:
    """Measure-phase hooks for ``SimulatorCore._run`` (see there).

    Attaches the engine's link counter; :meth:`link_delta` returns the
    per-link flits granted since the previous call (or since
    :meth:`begin`).
    """

    #: window series for the fault result's recovery analytics
    series = None

    def __init__(self, sim, window: int, sample_every: int):
        if not isinstance(sim, SimulatorCore):
            raise TypeError(
                "telemetry instruments a simulator engine; got "
                f"{type(sim).__name__}"
            )
        self.window = window
        self.sample_every = sample_every
        self._counts = sim.attach_link_telemetry()

    def begin(self, sim) -> None:
        self._base = self._counts.copy()

    def link_delta(self, sim) -> dict:
        now = self._counts.copy()
        delta, self._base = now - self._base, now
        return sim._link_dict(delta)


class _LinkProbe(_Probe):
    """One window over the whole measure phase, per-link occupancy."""

    def __init__(self, sim, measure: int, sample_every: int):
        super().__init__(sim, max(measure, 1), sample_every)
        self.link_flits: dict = {}
        self.occupancy = np.zeros_like(self._counts)
        self.samples = 0

    def sample(self, sim) -> None:
        self.samples += 1
        self.occupancy += sim.link_occupancy()

    def close(self, sim, end: int) -> None:
        self.link_flits = self.link_delta(sim)


def run_with_telemetry(
    sim, warmup: int = 300, measure: int = 600, sample_every: int = 8
):
    """Run ``sim`` collecting link telemetry during the measurement window.

    Returns ``(SimResult, LinkTelemetry)``.  The run is
    ``run(warmup, measure, drain=0)`` exactly — fault ``begin_run``
    and ``fault_result`` included — with per-link flit counts over the
    measure phase and per-link occupancy sampled from credit state every
    ``sample_every`` cycles.  Either engine, bit-identical per seed.
    """
    probe = _LinkProbe(sim, measure, sample_every)
    res = sim._run(warmup, measure, probe=probe)
    occupancy = sim._link_dict(probe.occupancy)
    telemetry = LinkTelemetry(
        cycles=measure,
        num_directed_links=2 * sim.topo.num_links,
        link_flits=probe.link_flits,
        mean_occupancy={k: s / probe.samples for k, s in occupancy.items()},
    )
    return res, telemetry


# ---------------------------------------------------------------------------
# Windowed time series (repro.obs.timeseries drivers)


def _dropped(sim) -> int:
    return sim._fault.dropped_flits if sim._fault is not None else 0


class _SeriesProbe(_Probe):
    """Closes one :class:`TimeSeriesCollector` window per ``window``."""

    def __init__(self, sim, window: int, sample_every: int, top_links: int):
        super().__init__(sim, window, sample_every)
        self.top_links = top_links

    def begin(self, sim) -> None:
        super().begin(sim)
        self.start = sim.now
        self.col = TimeSeriesCollector(
            self.window, top_links=self.top_links, start_cycle=sim.now
        )
        self.series = self.col.series
        self.col.prime(
            sim._stat.injected_flits,
            sim._stat.ejected_flits,
            _dropped(sim),
            len(sim._stat.latencies),
        )
        self.marks_seen = len(sim._fault.marks) if sim._fault is not None else 0

    def sample(self, sim) -> None:
        self.col.occupancy_sample(int(sim.link_occupancy().sum()))

    def close(self, sim, end: int) -> None:
        faults = []
        if sim._fault is not None:
            new = sim._fault.marks[self.marks_seen :]
            self.marks_seen = len(sim._fault.marks)
            faults = [c - self.start for c, _ in new]
        self.col.close_window(
            end,
            sim._stat.injected_flits,
            sim._stat.ejected_flits,
            _dropped(sim),
            sim._stat.latencies,
            self.link_delta(sim),
            faults,
        )


def run_with_timeseries(
    sim,
    warmup: int = 300,
    measure: int = 600,
    window: int = 64,
    sample_every: int = 8,
    top_links: int = 8,
    drain: int = 300,
):
    """Run ``sim`` open-loop, collecting a windowed time series.

    Returns ``(SimResult, WindowSeries)``.  The run is
    :meth:`~repro.flitsim.engine.SimulatorCore.run` exactly, so the
    returned :class:`SimResult` is bit-identical to an uninstrumented
    ``run()`` with the same phases.  On top, the measure phase is split
    into ``window``-cycle windows (the last may be shorter): per-window
    injected/ejected/dropped deltas, latency percentiles, occupancy
    samples every ``sample_every`` cycles, per-link flit counts (top
    ``top_links`` by heat plus the total), and fault-event markers.
    Window records are bit-identical across the two engines.  Latencies recorded during the
    drain (measured packets still in flight) intentionally fall outside
    all windows.  When faults are attached, the simulator's
    ``fault_result`` gains series-derived recovery analytics.
    """
    probe = _SeriesProbe(sim, window, sample_every, top_links)
    return sim._run(warmup, measure, drain, probe=probe), probe.series


def run_workload_with_timeseries(
    sim,
    window: int = 64,
    sample_every: int = 8,
    top_links: int = 8,
    max_cycles: int = 200_000,
):
    """Run the attached workload, collecting a windowed time series.

    Returns ``(WorkloadResult, WindowSeries)``.  The run is
    :meth:`~repro.flitsim.engine.SimulatorCore.run_workload` exactly
    (measured from cycle 0, exits when the collective completes or at
    ``max_cycles``), closing a window every ``window`` cycles plus a
    final partial window at completion.
    """
    probe = _SeriesProbe(sim, window, sample_every, top_links)
    return sim._run(max_cycles=max_cycles, probe=probe), probe.series
