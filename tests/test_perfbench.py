"""The perf harness's own logic: gates, rounds, cell checks and the CLI.

Everything here runs on synthetic documents, recording callables and
tiny cells; nothing times a real benchmark.
"""

import importlib.util
import os

import numpy as np
import pytest

from repro.experiments import perfbench
from repro.experiments.perfbench import GATES, Cell, check
from repro.flitsim.engine import SimResult

TOOLS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")

PF_Q3 = "polarfly:conc=1,q=3"


def _doc(path=(), value=None, kernel=True):
    doc = {"machine": {"flat_kernel": kernel}}
    if path:
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return doc


def _failures(doc, committed=None):
    return [line for ok, line in check(doc, committed) if not ok]


@pytest.mark.parametrize("gate", GATES, ids=[g.name for g in GATES])
def test_every_gate_passes_at_its_bound_and_fails_just_past_it(gate):
    eps = 1e-9
    if gate.kind == "slack":
        doc = _doc(gate.path, 1.0)
        assert _failures(doc, _doc(gate.path, gate.bound)) == []
        failed = _failures(doc, _doc(gate.path, gate.bound + eps))
    else:
        assert _failures(_doc(gate.path, gate.bound)) == []
        past = gate.bound - eps if gate.kind == "min" else gate.bound + eps
        failed = _failures(_doc(gate.path, past))
    assert len(failed) == 1 and gate.name in failed[0]


def test_gates_keep_their_bounds():
    bounds = {g.path[-1] if g.kind != "slack" else "slack": (g.kind, g.bound)
              for g in GATES}
    assert bounds["speedup_flat_over_reference"] == ("min", 1.0)
    assert bounds["speedup_batched_over_per_source"] == ("min", 1.0)
    assert bounds["slack"] == ("slack", 5.0)
    assert bounds["overhead_vs_pool_map"] == ("max", 1.05)
    assert bounds["overhead_disabled_vs_seed"] == ("max", 1.03)
    assert bounds["overhead_off_vs_seed"] == ("max", 1.05)
    speedup_gates = {g.path[1] for g in GATES
                     if g.path[-1] == "speedup_flat_over_reference"}
    assert speedup_gates == {
        name for name, cell in perfbench.CELLS.items()
        if cell.section in ("cells", "workloads", "faults")
    }


def test_construction_gate_without_and_with_a_committed_baseline():
    path = ("construction", perfbench.CONSTRUCTION_GATE, "routing_tables",
            "speedup_batched_over_per_source")
    doc = _doc(path, 2.0)
    lines = check(doc, None)
    assert all(ok for ok, _ in lines)
    assert any("no committed baseline" in line for _, line in lines)
    assert _failures(doc, _doc(path, 10.0)) == []
    assert len(_failures(doc, _doc(path, 10.5))) == 1
    assert len(_failures(_doc(path, 0.9), None)) == 1


def test_gates_skip_sections_the_run_left_out():
    assert check(_doc()) == []


def test_missing_kernel_fails_the_check():
    failed = _failures(_doc(kernel=False))
    assert len(failed) == 1 and "flat_kernel" in failed[0]


def _load_cli():
    spec = importlib.util.spec_from_file_location(
        "bench_cli", os.path.join(TOOLS, "bench.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kernel,code", [(None, 1), (object(), 0)])
def test_cli_check_fails_without_the_kernel(monkeypatch, tmp_path, kernel, code):
    calls = []
    section = {"overhead_off_vs_seed": 1.0}
    monkeypatch.setitem(
        perfbench.OVERHEADS, "ts_overhead", lambda: calls.append(1) or section
    )
    monkeypatch.setattr(perfbench, "load_kernel", lambda: kernel)
    out = tmp_path / "bench.json"
    cli = _load_cli()
    assert cli.main(["--out", str(out), "--only", "ts_overhead", "--check"]) == code
    assert calls == [1]
    assert out.exists()
    # Without --check the same run reports but does not fail.
    assert cli.main(["--out", str(out), "--only", "ts_overhead"]) == 0


def test_select_names_cells_sections_and_rejects_unknowns():
    names = {name for _, name, _ in perfbench.select(["faults", "pf_q7"])}
    assert names == {"fig14_pf_ugalpf_mtbf", "fault01_mtbf_kernel", "pf_q7"}
    sections = {s for s, _, _ in perfbench.select(["obs_overhead"])}
    assert sections == {"obs_overhead"}
    assert len(perfbench.select()) == (
        len(perfbench.CELLS) + len(perfbench.CONSTRUCTION_SPECS)
        + len(perfbench.OVERHEADS)
    )
    with pytest.raises(ValueError, match="unknown names"):
        perfbench.select(["no_such_cell"])


def test_interleaved_alternates_which_side_runs_first():
    order = []
    a_walls, b_walls = perfbench._interleaved(
        lambda: order.append("a"), lambda: order.append("b"), 4
    )
    assert order == ["a", "b", "a", "b", "b", "a", "a", "b", "b", "a"]
    assert len(a_walls) == len(b_walls) == 4


def _open_cell(**kw):
    return Cell("cells", dict(topology=PF_Q3, policy="min",
                              traffic="uniform", load=0.3),
                warmup=5, measure=10, **kw)


def test_open_loop_cell_records_walls_speedup_and_phases():
    result = perfbench.bench_cell(_open_cell())
    assert set(result["engines"]) == {"reference", "flat"}
    assert result["cycles"] == 15
    assert result["speedup_flat_over_reference"] > 0
    assert set(result["phases"]) == {"construct_s", "route_s", "simulate_s"}


def test_fault_cell_records_its_drop_counters():
    cell = Cell("faults", dict(
        topology=PF_Q3, policy="min", traffic="uniform", load=0.5,
        faults="linkflap:seed=1",
    ), warmup=5, measure=20)
    result = perfbench.bench_cell(cell)
    assert "dropped_flits" in result and "fault_applied_events" in result


def test_engine_divergence_raises(monkeypatch):
    def fake_point(topo, policy, traffic, load, engine=None, **kw):
        res = SimResult(offered_load=load, cycles=10, num_endpoints=4)
        res.injected_flits = 7 if engine == "flat" else 8
        return res.finalize()

    monkeypatch.setattr(perfbench, "simulate_point", fake_point)
    with pytest.raises(RuntimeError, match="engine divergence"):
        perfbench.bench_cell(_open_cell())


def test_equal_signatures_pass_and_arrays_compare_by_content():
    a = SimResult(offered_load=0.1, cycles=5, num_endpoints=2,
                  latencies=[3.0, 4.0]).finalize()
    b = SimResult(offered_load=0.1, cycles=5, num_endpoints=2,
                  latencies=np.array([3.0, 4.0])).finalize()
    assert perfbench._signature(a) == perfbench._signature(b)
    b.latencies[1] = 5.0
    assert perfbench._signature(a) != perfbench._signature(b)


def test_unfinished_workload_raises():
    cell = Cell("workloads", dict(
        topology=PF_Q3, policy="min", workload="alltoall:size=8",
    ), engines=("reference",), max_cycles=5)
    with pytest.raises(RuntimeError, match="within 5 cycles"):
        perfbench.bench_cell(cell)
