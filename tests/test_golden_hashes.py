"""Golden hashes: the sha256 of the trace CSV, of every ``RunHistory`` array
and of ``losses.q`` for eight runs, recorded in ``golden_hashes.json``. Six
are small (n <= 20, so ``simulate`` measures 40 or more rounds a block); the
two 200-agent runs measure one round a block and mix through ``PaddedRows``.

Reruns of one config are byte-identical, so any change of these bytes is a
change of the program, of numpy's streams (NEP 19 lets a ``Generator``
method's stream change between feature releases) or of the BLAS kernels. A
mismatch names the recorded and the current build and prints the new hash.
A change that moves bits on purpose records the file again, with
``python tests/test_golden_hashes.py``, and says why;
``python tests/test_golden_hashes.py NAME ...`` records only the named cases
and keeps the others as recorded.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import numpy_build, run_bytes

from netdual import (
    ActionBox,
    BlockMap,
    DigraphSchedule,
    RunConfig,
    harness,
    lazy_cycle_pair,
    split_ring_schedule,
)

RECORD = Path(__file__).with_name("golden_hashes.json")


def box(n):
    return ActionBox.uniform(-10.0, 10.0, n)


def grouped_config() -> RunConfig:
    """oda-c on a grouped block map, with a non-diagonal noise covariance."""
    M = np.random.Generator(np.random.PCG64(2)).uniform(-1.0, 1.0, (10, 10))
    cov = 0.1 * (M @ M.T) + 0.1 * np.eye(10)
    return RunConfig(
        "oda-c", lazy_cycle_pair(4), box(10), T=200, seed=6,
        blocks=BlockMap(blocks=((0, 5), (1, 2), (3,), (4, 6, 7, 8, 9))),
        environment=harness.SensingEnvironment(cov=cov),
    )


def explicit_config() -> RunConfig:
    """oda-ps on an explicit (period 0) schedule: the split ring's phases,
    each held for two rounds."""
    phases = split_ring_schedule(5, 3).graphs
    graphs = tuple(phases[(t // 2) % 3] for t in range(300))
    return RunConfig(
        "oda-ps", DigraphSchedule(n=5, graphs=graphs, period=0), box(5), T=300, seed=4
    )


CASES = {
    "oda-c/cycle5": lambda: RunConfig("oda-c", lazy_cycle_pair(5), box(5), T=300, seed=3),
    "oda-c/cycle20": lambda: RunConfig("oda-c", lazy_cycle_pair(20), box(20), T=500, seed=1),
    "oda-c/grouped": grouped_config,
    "oda-ps/split-ring5": lambda: RunConfig(
        "oda-ps", split_ring_schedule(5, 3), box(5), T=300, seed=4
    ),
    "oda-ps/split-ring20": lambda: RunConfig(
        "oda-ps", split_ring_schedule(20, 4), box(20), T=400, seed=2
    ),
    "oda-ps/explicit": explicit_config,
    # one round a block (n p > BLOCK_VALUES) and a PaddedRows mix
    "oda-c/cycle200": lambda: RunConfig(
        "oda-c", lazy_cycle_pair(200), ActionBox.uniform(-8.0, 8.0, 200), T=40, seed=5
    ),
    "oda-ps/split-ring200": lambda: RunConfig(
        "oda-ps", split_ring_schedule(200, 5), ActionBox.uniform(-8.0, 8.0, 200), T=40, seed=5
    ),
}


def case_hashes(name: str, directory: Path) -> dict:
    """The sha256 of each array of the case's run and of its trace CSV."""
    arrays, csv = run_bytes(CASES[name](), directory / "trace.csv")
    return {
        key: hashlib.sha256(data).hexdigest()
        for key, data in {**arrays, "trace.csv": csv}.items()
    }


@pytest.mark.parametrize("name", CASES)
def test_run_bytes_match_the_recorded_hashes(name, tmp_path):
    record = json.loads(RECORD.read_text())
    want, got = record["hashes"][name], case_hashes(name, tmp_path)
    assert sorted(got) == sorted(want), f"{name}: hashed {sorted(got)}, recorded {sorted(want)}"
    moved = [f"  {key}: {got[key]} (recorded {want[key]})" for key in want if got[key] != want[key]]
    assert not moved, (
        f"{name}: {len(moved)} of {len(want)} hashes moved; recorded on "
        f"{record['build']}, this build: {numpy_build()}\n" + "\n".join(moved)
    )


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases {unknown}; known: {list(CASES)}")
    hashes = json.loads(RECORD.read_text())["hashes"] if sys.argv[1:] else {}
    with tempfile.TemporaryDirectory() as directory:
        hashes.update({name: case_hashes(name, Path(directory)) for name in names})
    hashes = {name: hashes[name] for name in CASES if name in hashes}
    RECORD.write_text(json.dumps({"build": numpy_build(), "hashes": hashes}, indent=1) + "\n")
    print(f"wrote {RECORD}: {', '.join(names)}")
