"""Statistics across seeds: the gate for a change that moves every fixed-seed
trajectory on purpose, such as a new noise stream.

At n = 20 one trajectory moves by O(1) when its noise changes, so no
fixed-seed tolerance can judge such a change. What must hold is the regime:
over seeds 0-19 at T = 500, box [-10, 10] and the default sensing
environment, each statistic's median must lie inside the interquartile range
recorded in ``regime_statistics.json``. The file was recorded with the
polar-method noise draw that ``Generator.standard_normal`` replaced. To
record it again, on purpose, run ``python tests/test_regime_statistics.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import numpy_build

from netdual import ActionBox, RunConfig, finalize, lazy_cycle_pair, simulate, split_ring_schedule

RECORD = Path(__file__).with_name("regime_statistics.json")
SEEDS = range(20)
T = 500
STATISTICS = ("regret_per_round", "max_disagreement", "boundary_fraction")
CONFIGS = {
    f"{algorithm}/n={n}": (algorithm, n) for algorithm in ("oda-c", "oda-ps") for n in (5, 20)
}


def config(algorithm: str, n: int, seed: int) -> RunConfig:
    topology = lazy_cycle_pair(n) if algorithm == "oda-c" else split_ring_schedule(n, 3)
    return RunConfig(algorithm, topology, ActionBox.uniform(-10.0, 10.0, n), T=T, seed=seed)


def run_statistics(cfg: RunConfig) -> dict:
    """One run's regret / T, its max disagreement and the fraction of its
    action entries on the box boundary."""
    history = simulate(cfg)
    box = cfg.box
    on_bound = (history.actions == box.lo) | (history.actions == box.hi)
    return {
        "regret_per_round": finalize(history).regret / cfg.T,
        "max_disagreement": float(history.disagreement.max()),
        "boundary_fraction": float(on_bound.mean()),
    }


def regime_statistics() -> dict:
    """For each config and statistic, its [Q1, median, Q3] over the seeds."""
    out = {}
    for name, (algorithm, n) in CONFIGS.items():
        runs = [run_statistics(config(algorithm, n, seed)) for seed in SEEDS]
        out[name] = {
            stat: np.percentile([r[stat] for r in runs], [25, 50, 75]).tolist()
            for stat in STATISTICS
        }
    return out


@pytest.fixture(scope="module")
def measured():
    return regime_statistics()


@pytest.mark.parametrize("name", CONFIGS)
def test_medians_lie_in_the_recorded_quartiles(name, measured):
    record = json.loads(RECORD.read_text())
    for stat in STATISTICS:
        q1, recorded_median, q3 = record["statistics"][name][stat]
        median = measured[name][stat][1]
        assert q1 <= median <= q3, (
            f"{name} {stat}: median {median!r} left the recorded [Q1, Q3] = "
            f"[{q1!r}, {q3!r}] (recorded median {recorded_median!r}, on "
            f"{record['build']}; this build: {numpy_build()})"
        )


if __name__ == "__main__":
    RECORD.write_text(
        json.dumps(
            {
                "build": numpy_build(),
                "seeds": [SEEDS.start, SEEDS.stop - 1],
                "T": T,
                "statistics": regime_statistics(),
            },
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {RECORD}")
