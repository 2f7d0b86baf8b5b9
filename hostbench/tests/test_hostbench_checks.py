"""Output checks: a perturbed cell output must count as a failed cell."""

import copy

from bench_pins import mismatches
from bench_workloads import Batch, digest
from run import OutputCheck

CELLS = [{"warmup": 1, "measure": 2, "drain": 1}] * 3
OUTPUTS = [
    {"cycles": 2, "ejected_flits": 10 + i, "avg_latency": 5.5 + i}
    for i in range(3)
]


def _batch(outputs):
    return Batch(1.0, CELLS, outputs)


def test_matching_outputs_pass():
    check = OutputCheck([digest(o) for o in OUTPUTS])
    check.batch(_batch(copy.deepcopy(OUTPUTS)))
    assert (check.attempted, check.failed) == (3, 0)


def test_perturbed_output_marks_the_cell_failed():
    check = OutputCheck([digest(o) for o in OUTPUTS])
    perturbed = copy.deepcopy(OUTPUTS)
    perturbed[1]["avg_latency"] += 1e-12
    check.batch(_batch(perturbed))
    assert (check.attempted, check.failed) == (3, 1)


def test_unpinned_run_holds_later_batches_to_the_first():
    check = OutputCheck(None)
    check.batch(_batch(copy.deepcopy(OUTPUTS)))
    perturbed = copy.deepcopy(OUTPUTS)
    perturbed[0]["ejected_flits"] += 1
    check.batch(_batch(perturbed))
    assert (check.attempted, check.failed) == (6, 1)


def test_missing_output_is_a_failure_even_unpinned():
    check = OutputCheck(None)
    check.batch(_batch([OUTPUTS[0], None, OUTPUTS[2]]))
    assert check.failed == 1


def test_reference_mismatch_is_a_failed_cell():
    check = OutputCheck(None)
    check.reference(False)
    assert (check.attempted, check.failed) == (1, 1)


def test_mismatches_flags_length_changes():
    assert mismatches(["a", "b"], ["a"]) == [0, 1]
