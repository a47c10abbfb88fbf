"""In-process A/B timing of ``simulate`` between two netdual source trees.

    python3 tools/ab_simulate.py PARENT_SRC CHANGE_SRC --workload pushsum50-sched --pairs 20

PARENT_SRC and CHANGE_SRC are directories that each hold a ``netdual``
package (a checkout's ``src``). Both trees are imported into this one
process under distinct package names, and one benchmark workload's config
(``bench/run.py``'s ``WORKLOADS``, read only) is built by each. The two runs
must leave byte-identical ``RunHistory`` arrays, or the tool stops. It then
times ``simulate`` on the two trees in alternation, the first call of each
pair alternating too, and prints one JSON line: both medians in us per
round and the number of pairs in which the change was lower.

Timing both trees in one process keeps them on one heap, one BLAS and one
CPU-speed state: between processes, run times on a small shared box swing
by 25-40%, which hides a change of a few percent. An in-process win is a
lead, to be confirmed by alternating ``bench/run.py`` pairs: a gain this
tool shows can be absent from the benchmark's workloads.
"""

import argparse
import gc
import importlib.util
import json
import os
import statistics
import sys
from dataclasses import fields
from pathlib import Path
from time import perf_counter

# one BLAS thread, as bench/run.py sets it, before numpy loads OpenBLAS
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 5  # the RunConfig seed of both trees' runs


def load_tree(src: str, name: str):
    """The ``netdual`` package under ``src``, imported as ``name``; its
    relative imports resolve inside that tree."""
    init = Path(src) / "netdual" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_simulate: no netdual package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_workloads() -> dict:
    """``bench/run.py``'s WORKLOADS; the module is imported, not changed."""
    sys.path.insert(0, str(BENCH))  # for its `from tracer import`
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def history_arrays(history) -> dict:
    arrays = {
        f.name: getattr(history, f.name)
        for f in fields(history)
        if isinstance(getattr(history, f.name), np.ndarray)
    }
    arrays["losses.A"], arrays["losses.q"] = history.losses.A, history.losses.q
    return arrays


def assert_identical(a, b) -> None:
    """Stop unless the two histories hold the same arrays, byte for byte."""
    want, got = history_arrays(a), history_arrays(b)
    for name in want.keys() | got.keys():
        x, y = want.get(name), got.get(name)
        if x is None or y is None or x.dtype != y.dtype or x.shape != y.shape \
                or x.tobytes() != y.tobytes():
            raise SystemExit(f"ab_simulate: RunHistory.{name} differs between the trees")


def timed_us_per_round(harness, config) -> float:
    gc.collect()
    start = perf_counter()
    harness.simulate(config)
    return (perf_counter() - start) / max(config.T, 1) * 1e6


def compare(parent, change, spec: dict, pairs: int) -> dict:
    """Check the two trees' runs of one config dict, then time ``pairs``
    alternating pairs of ``simulate`` calls."""
    configs = [tree.harness.config_from_dict(dict(spec)) for tree in (parent, change)]
    assert_identical(*(tree.harness.simulate(c) for tree, c in zip((parent, change), configs)))
    times = ([], [])
    for k in range(pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for side in order:
            tree = (parent, change)[side]
            times[side].append(timed_us_per_round(tree.harness, configs[side]))
    return {
        "T": configs[0].T,
        "pairs": pairs,
        "parent_us_per_round": round(statistics.median(times[0]), 2),
        "change_us_per_round": round(statistics.median(times[1]), 2),
        "change_lower": sum(b < a for a, b in zip(*times)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rounds", type=int, help="a horizon in place of the workload's")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    spec = workloads[args.workload].config(SEED)
    if args.rounds is not None:
        spec["T"] = args.rounds
    parent = load_tree(args.parent_src, "netdual_parent")
    change = load_tree(args.change_src, "netdual_change")
    result = compare(parent, change, spec, args.pairs)
    print(json.dumps({"workload": args.workload, "seed": SEED, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
