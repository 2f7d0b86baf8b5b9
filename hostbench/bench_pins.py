"""Pinned simulated outputs: the benchmark's correctness reference.

``pins.json`` maps workload -> seed -> the digest of every cell's output,
in cell order, for the ``full`` size.  Seed 1 is the default seed and
seed 2 the held-out seed a perf claim is re-checked on; the other pinned
seeds cover repeated runs with distinct seeds.  An unpinned seed is still
checked: every batch must reproduce the first batch exactly, and one short
cell must match the reference engine.
"""

from __future__ import annotations

import json
from pathlib import Path

PINS_PATH = Path(__file__).resolve().with_name("pins.json")

#: the seed a run uses unless told otherwise; seed 2 is the held-out seed
DEFAULT_SEED = 1


def load_pins(path: Path = PINS_PATH) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def expected_digests(pins: dict, workload: str, seed: int, size: str):
    """The pinned digests for one run, or ``None`` when not pinned."""
    if size != "full":
        return None
    return pins.get(workload, {}).get(str(seed))


def mismatches(digests: list, expected: list) -> list:
    """Indexes of cells whose digest is missing or differs from ``expected``."""
    if len(digests) != len(expected):
        return list(range(max(len(digests), len(expected))))
    return [i for i, (d, e) in enumerate(zip(digests, expected)) if d != e]


def write_pins(pins: dict, path: Path = PINS_PATH) -> None:
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
