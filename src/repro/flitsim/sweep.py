"""Load sweeps and latency/throughput curves (Figures 8-11 harness).

Runs the simulator across a list of offered loads and collects the points
the paper plots: average latency vs offered load, plus accepted throughput
(whose plateau is the saturation point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flitsim.simulator import SimConfig, SimResult
from repro.flitsim.traffic import TrafficPattern
from repro.routing.policies import RoutingPolicy
from repro.topologies.base import Topology

__all__ = ["SweepPoint", "LoadSweep", "run_load_sweep", "saturation_load"]


@dataclass
class SweepPoint:
    """One (offered load, latency, throughput) sample."""

    offered_load: float
    avg_latency: float
    p99_latency: float
    accepted_load: float
    avg_hops: float
    p50_latency: float = float("nan")

    @classmethod
    def from_result(cls, res: SimResult) -> "SweepPoint":
        return cls(
            offered_load=res.offered_load,
            avg_latency=res.avg_latency,
            p99_latency=res.p99_latency,
            accepted_load=res.accepted_load,
            avg_hops=res.avg_hops,
            p50_latency=res.p50_latency,
        )


@dataclass
class LoadSweep:
    """A labelled latency-vs-load curve."""

    label: str
    points: list

    @property
    def loads(self) -> np.ndarray:
        return np.array([p.offered_load for p in self.points])

    @property
    def latencies(self) -> np.ndarray:
        return np.array([p.avg_latency for p in self.points])

    @property
    def throughputs(self) -> np.ndarray:
        return np.array([p.accepted_load for p in self.points])

    def saturation_load(self) -> float:
        """The curve's saturation throughput (see :func:`saturation_load`)."""
        return saturation_load(self.points)

    def rows(self) -> list[dict]:
        """Table rows (one per load point) for report printing."""
        return [
            {
                "label": self.label,
                "offered": round(p.offered_load, 3),
                "latency": round(p.avg_latency, 1),
                "accepted": round(p.accepted_load, 3),
            }
            for p in self.points
        ]


def saturation_load(points) -> float:
    """The plateau (maximum) of accepted load over the sweep.

    This is the paper's saturation-throughput metric: below saturation
    accepted tracks offered, past it accepted flattens at the plateau,
    so the maximum accepted load IS the saturation throughput.
    """
    return max((p.accepted_load for p in points), default=0.0)


def run_load_sweep(
    topo: Topology,
    policy: RoutingPolicy,
    traffic: TrafficPattern,
    loads,
    label: str = "",
    config: SimConfig = SimConfig(),
    warmup: int = 600,
    measure: int = 1200,
    drain: int = 300,
    seed=0,
    engine: str | None = None,
) -> LoadSweep:
    """Simulate every load in ``loads`` and return the resulting curve.

    Compatibility wrapper over the shared sweep engine
    (:class:`repro.experiments.runner.SweepRunner`), for callers holding
    already-built objects.  Spec-string callers should build an
    :class:`~repro.experiments.spec.ExperimentSpec` instead and gain
    caching and process-parallel execution.  ``engine`` pins a simulator
    engine (``"flat"``/``"reference"``) without mutating the
    ``$REPRO_SIM_ENGINE`` environment.
    """
    # Imported lazily: experiments sits above flitsim in the layering.
    from repro.experiments.runner import SweepRunner

    return SweepRunner().run_objects(
        topo, policy, traffic, loads, label=label, config=config,
        warmup=warmup, measure=measure, drain=drain, seed=seed,
        engine=engine,
    )
