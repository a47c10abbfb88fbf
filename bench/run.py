"""netdual benchmark: end-to-end metrics, and a traced per-layer run.

    python3 bench/run.py --workload pushsum50-sched --seed 1 --seconds 40 --trace 0

Each workload is a closed loop in one process: one operation at a time,
the next starting only after the last one has finished and been checked.
An operation is the library call sequence behind ``netdual run``
(``simulate``, ``finalize``, ``write_trace_csv``) or behind ``netdual sweep
--cumulative`` (``sweep``, ``write_sweep_csv``), timed from outside at
those calls. The seed reaches the program only as the ``RunConfig`` seed.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the run alternates an untraced and a traced operation (see
``tracer.py``), and reports per-layer self times and counts, the share of
an operation no span covers and the tracing overhead (the median over
neighbouring pairs of traced minus untraced time). Earlier lines report
the machine, any failed operation or layer the tracer could not wrap, and
the checked outputs (regret, theory bound, bound slack, comparator
iterations).

Every operation is checked: the five ``check-invariants`` conditions and a
byte-identical output CSV across the repeats of one seed. An operation
that raises or fails a check is printed and counted in ``failed``.

Timed metrics are medians over the operations of a run, each operation
scaled to a reference machine speed sampled while it runs (see
``Calibration``). ``peak_mb`` is the resident-set growth of the first
operation. Output files (CSVs, spans) go to ``.bench_out/``.
"""

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads OpenBLAS. With two, the helper
# thread runs on the other vCPU, whose speed the calibration does not see
# (see Calibration), and ring200-wide's run_s and setup_s spread wider.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from tracer import LAYERS, OP, PROBE_LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_BLOCKS = 3  # config_from_dict timing blocks before each operation
SETUP_BLOCK_S = 0.02  # each block repeats the call for at least this long
CAL_INTERVAL_S = 0.05  # calibration sample period during an operation
CAL_ITERS = 20  # kernel iterations timed per sample, 0.3-0.5 ms
CAL_REF_S = 0.0004  # sample time that defines the reference speed
CAL_WINDOW_S = 0.25  # samples this close to a timed interval set its speed
MB = 1e6


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    graph: dict
    T: int
    horizons: tuple = ()  # set for a cumulative sweep
    box: tuple = (-10.0, 10.0)
    speed_exponent: float = 1.0  # elasticity of operation time, see Calibration

    def config(self, seed: int) -> dict:
        return {
            "algorithm": self.algorithm,
            "graph": self.graph,
            "box": list(self.box),
            "T": self.T,
            "seed": seed,
            "environment": {"type": "sensing"},
        }


def cycle_graph(n: int) -> dict:
    """Inline static graph: n-cycle, holding weight 1/2, neighbours 1/4, uniform r."""
    M = [[0.0] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = 0.5
        M[i][(i + 1) % n] = 0.25
        M[i][(i - 1) % n] = 0.25
    return {
        "mode": "static",
        "n": n,
        "edges": [[i, (i + 1) % n] for i in range(n)],
        "r": [1.0 / n] * n,
        "M": M,
    }


def split_ring(n: int, phases: int) -> dict:
    """Inline schedule: a directed n-ring dealt out over `phases` graphs, all
    with self-loops, so only `phases` consecutive graphs are strongly connected."""
    ring = [[i, (i + 1) % n] for i in range(n)]
    chunk = math.ceil(n / phases)
    loops = [[i, i] for i in range(n)]
    return {
        "mode": "schedule",
        "n": n,
        "period": phases,
        "graphs": [loops + ring[k * chunk : (k + 1) * chunk] for k in range(phases)],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pushsum50-sched", "oda-ps", split_ring(50, 5), 2000, speed_exponent=0.75),
        # The sensing target is drawn from [-10, 10]^p. With the default box
        # the hindsight comparator is interior (one solver iteration) for
        # about 70% of seeds at n=200 and constrained (4600-9400 iterations)
        # for the rest, so finalize time would be bimodal across seeds. With
        # the box [-8, 8] it is constrained for every seed (900-2400).
        Workload(
            "ring200-wide", "oda-c", cycle_graph(200), 500, box=(-8.0, 8.0), speed_exponent=0.3
        ),
        Workload(
            "sweep20-prefix",
            "oda-c",
            cycle_graph(20),
            4000,
            horizons=tuple(range(250, 4001, 250)),
            speed_exponent=0.7,
        ),
    )
}

END_TO_END = {
    "run_s": "s",
    "simulate_us_per_round": "us",
    "finalize_s": "s",
    "setup_s": "s",
    "peak_mb": "MB",
}

LAYER_TIMES = tuple(name for name, _, _ in LAYERS)
LAYER_CALLS = (
    "harness.env",
    "engine.diag",
    "objectives.gradient",
    "objectives.value",
    "topology.matrix_at",
)


def per_layer_units() -> dict:
    units = {f"{name}.self_s": "s" for name in LAYER_TIMES}
    units.update({f"{name}.calls": "count" for name in LAYER_CALLS})
    units["regret.offline_comparator.iterations"] = "count"
    units["harness.history_bytes"] = "bytes"
    units["trace.unattributed_frac"] = "ratio"
    units["trace.run_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# environment


def import_netdual():
    """Import netdual from this checkout's src/, never from elsewhere."""
    if not (SRC / "netdual" / "__init__.py").is_file():
        raise SystemExit(f"bench: no netdual sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import netdual
    from netdual import harness

    if SRC not in Path(netdual.__file__).resolve().parents:
        raise SystemExit(f"bench: netdual imported from {netdual.__file__}, not {SRC}")
    return harness


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy has loaded."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line[len(prefix) :].strip(" \t:\n")
    except OSError:
        pass
    return None


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _read_first("/proc/cpuinfo", "model name") or platform.machine(),
        "l3": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f'{blas.get("name")} {blas.get("version")}',
        "blas_threads": _blas_threads(),
    }


def _status_kb(field: str) -> int:
    """A memory field of /proc/self/status, in kB."""
    return int(_read_first("/proc/self/status", field).split()[0])


# ---------------------------------------------------------------------------
# checks


def trace_problems(trace) -> list:
    """The five ``check-invariants`` conditions on one finished trace."""
    problems = []
    if not np.all(trace.regret_partial <= trace.bound_partial + 1e-9):
        problems.append("regret exceeds the partial bound")
    d_bound = trace.constants.get("disagreement_bound", math.inf)
    if not np.all(trace.disagreement_squared <= d_bound * (1 + 1e-12) + 1e-12):
        problems.append("disagreement exceeds its bound")
    if not trace.regret <= trace.theory_bound:
        problems.append(f"regret {trace.regret} exceeds theory bound {trace.theory_bound}")
    mf = float(np.max(trace.mean_field_residual)) if trace.T else 0.0
    if not mf <= 1e-8:
        problems.append(f"mean-field residual {mf:.3e} > 1e-8")
    w = trace.constants.get("max_weight_residual", 0.0)
    if not w <= 1e-9:
        problems.append(f"weight residual {w:.3e} > 1e-9")
    return problems


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def history_bytes(history) -> int:
    return sum(v.nbytes for v in vars(history).values() if hasattr(v, "nbytes"))


# ---------------------------------------------------------------------------
# machine speed


class Calibration:
    """A fixed numpy/Python kernel timed while an operation runs.

    The shared 2-vCPU machine of bench/baseline.json switches every few
    seconds between a fast and a slow state (each vCPU on its own, and in
    process CPU time as much as in wall time), and whole operations move
    with it, so raw per-run
    medians spread by up to 30% across runs. While an operation runs, a
    SIGALRM handler times CAL_ITERS kernel iterations every CAL_INTERVAL_S
    (after two untimed ones that bring the kernel back into cache). The
    time spent sampling is taken out of every timing through ``clock``.
    Each timed interval (set-up, the operation, simulate, finalize) is
    scaled to the reference speed by (CAL_REF_S / u) ** e, where u is the
    median of the samples taken within CAL_WINDOW_S of the interval and
    e the workload's ``speed_exponent``, the least-squares slope of log
    time on log u: over 14-30 operations 0.74 on pushsum50-sched and 0.32
    on ring200-wide, whose BLAS work and large arrays slow down less than
    the kernel; on sweep20-prefix 0.86 over operations and 0.63-0.66 over
    the medians of five runs, hence 0.7. On sweep20-prefix the
    samples taken during the operation correlate with its time at 0.95,
    samples taken just before and after it at 0.71. Both sides of a
    comparison see the same mix of machine states, so the exponent sets how
    much noise is removed, not the expected result.

    The kernel does what netdual's round loop does (small matrix-vector
    products, clipping, norms, Python-level loops) and does not touch
    netdual, so a change to netdual cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = np.eye(20) + 0.1 * rng.uniform(-1.0, 1.0, (20, 20))
        self.q = rng.uniform(-1.0, 1.0, 20)
        self.lo = np.full(20, -1.0)
        self.hi = np.full(20, 1.0)
        self.samples = []  # (clock time, sample time) of the current operation
        self.times = []  # every sample time of the run
        self.paused = 0.0  # seconds spent sampling so far

    def _kernel(self, iters: int) -> float:
        A, q, lo, hi = self.A, self.q, self.lo, self.hi
        x = np.zeros(20)
        acc = 0.0
        for _ in range(iters):
            g = A.T @ (A @ x - q)
            x = np.clip(x - 0.05 * g, lo, hi)
            acc += float(np.linalg.norm(x)) + sum([x[k] for k in range(8)])
        return acc

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter()
        self._kernel(2)
        t1 = perf_counter()
        self._kernel(CAL_ITERS)
        t2 = perf_counter()
        self.samples.append((t0 - self.paused, t2 - t1))
        self.paused += perf_counter() - t0

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return perf_counter() - self.paused

    def start(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # an operation shorter than CAL_INTERVAL_S
            self._sample()
        self.times += [u for _, u in self.samples]

    def unit(self, a: float, b: float) -> float:
        """Median sample time within CAL_WINDOW_S of [a, b] on ``clock``,
        or over the whole operation if no sample was that close."""
        near = [u for t, u in self.samples if a - CAL_WINDOW_S <= t <= b + CAL_WINDOW_S]
        return statistics.median(near or [u for _, u in self.samples])


# ---------------------------------------------------------------------------
# one operation


class Bench:
    """Runs and checks operations of one workload at one seed."""

    def __init__(self, harness, workload: Workload, seed: int, out_dir: Path):
        self.harness = harness
        self.workload = workload
        self.d = workload.config(seed)
        suffix = "sweep.csv" if workload.horizons else "trace.csv"
        self.csv = out_dir / f"{workload.name}-{suffix}"
        self.reference_sha = None
        self.ops = []
        self.failures = []
        self.calibration = Calibration()

    def build_config(self):
        """``config_from_dict`` on the workload's dict, timed before every
        operation so set-up is sampled across the whole run. A single call
        takes 0.1-2 ms, too short to time alone, so each of SETUP_BLOCKS
        blocks repeats it for SETUP_BLOCK_S; returns the config, the
        median over blocks of the time per call and the timed interval."""
        clock = self.calibration.clock
        start = clock()
        per_call = []
        for _ in range(SETUP_BLOCKS):
            calls = 0
            t0 = clock()
            while True:
                config = self.harness.config_from_dict(self.d)
                calls += 1
                elapsed = clock() - t0
                if elapsed >= SETUP_BLOCK_S:
                    break
            per_call.append(elapsed / calls)
        return config, statistics.median(per_call), (start, clock())

    def _operation(self, tracer) -> dict:
        h = self.harness
        clock = self.calibration.clock
        config, setup_s, setup_span = self.build_config()
        gc.collect()
        root = tracer.begin_op()
        if self.workload.horizons:
            t0 = clock()
            rows = h.sweep(config, self.workload.horizons, cumulative=True)
            t1 = clock()
            h.write_sweep_csv(rows, str(self.csv))
            t3 = clock()
        else:
            t0 = clock()
            history = h.simulate(config)
            t1 = clock()
            trace = h.finalize(history)
            t2 = clock()
            h.write_trace_csv(trace, str(self.csv))
            t3 = clock()
        tracer.end_op(root)

        calls = {}
        for name, out, start, end in tracer.results:
            calls.setdefault(name, []).append((out, start, end))
        ((history, s0, s1),) = calls["harness.simulate"]
        rec = {
            "setup_s": setup_s,
            "run_s": t3 - t0,
            "simulate_us_per_round": (s1 - s0) / history.config.T * 1e6,
            "history_bytes": history_bytes(history),
            "iterations": sum(r.iterations for r, _, _ in calls["regret.offline_comparator"]),
            "problems": [],
        }
        if self.workload.horizons:
            # the measurement part of the sweep: everything after simulate
            rec["finalize_s"] = t1 - t0 - (s1 - s0)
            finalize_span = (s1, t1)
            for tr, _, _ in calls["harness.finalize"]:
                rec["problems"] += [f"T={tr.T}: {p}" for p in trace_problems(tr)]
            rec.update(regret=rows[-1].regret, theory_bound=rows[-1].theory_bound)
        else:
            rec["finalize_s"] = t2 - t1
            finalize_span = (t1, t2)
            rec["problems"] += trace_problems(trace)
            rec.update(regret=trace.regret, theory_bound=trace.theory_bound)
        rec["csv_sha256"] = file_sha256(self.csv)
        if self.reference_sha is None:
            self.reference_sha = rec["csv_sha256"]
        elif rec["csv_sha256"] != self.reference_sha:
            rec["problems"].append("output CSV differs from the first repeat of this seed")
        # the interval each timed metric covers, to scale it by its own speed
        rec["spans"] = {
            "setup_s": setup_span,
            "run_s": (t0, t3),
            "simulate_us_per_round": (s0, s1),
            "finalize_s": finalize_span,
        }
        return rec

    def attempt(self, tracer, phase: str):
        """One checked operation; a failure is printed and counted, never raised."""
        k = len(self.ops) + len(self.failures)
        tracer.install()
        self.calibration.start()
        try:
            rec = self._operation(tracer)
            problems = rec.pop("problems")
        except Exception as e:  # an operation that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            rec, problems = None, [f"{type(e).__name__}: {e}"]
        finally:
            self.calibration.stop()
            tracer.uninstall()
            tracer.results = []
        if problems:
            self.failures.append(problems)
            print(json.dumps({"failed_op": k, "phase": phase, "problems": problems}))
            return None
        rec["phase"] = phase
        rec["speed"] = {
            key: (CAL_REF_S / self.calibration.unit(a, b)) ** self.workload.speed_exponent
            for key, (a, b) in rec.pop("spans").items()
        }
        self.ops.append(rec)
        return rec

    def loop(self, steps, seconds: float, after_first=None):
        """Closed loop for `seconds`. Each iteration runs one operation per
        (tracer, phase) in `steps`, and the next iteration starts only if a
        typical one still fits. At least one runs. `after_first` is called
        after the first operation."""
        start = perf_counter()
        spent = []
        while not spent or perf_counter() - start + statistics.median(spent) <= seconds:
            t0 = perf_counter()
            for tracer, phase in steps:
                rec = self.attempt(tracer, phase)
                if after_first is not None:
                    after_first()
                    after_first = None
                if rec is not None:
                    rec["iteration"] = len(spent)
            spent.append(perf_counter() - t0)

    def phase_ops(self, phase: str) -> list:
        return [r for r in self.ops if r["phase"] == phase]


# ---------------------------------------------------------------------------
# a run


def _median(recs, key):
    return statistics.median(r[key] for r in recs)


def _scaled(recs, key):
    """Median over operations of a time at the reference speed."""
    return statistics.median(r[key] * r["speed"][key] for r in recs)


def end_to_end_metrics(bench: Bench, peak_kb: int) -> dict:
    ops = bench.phase_ops("untraced")
    return {
        "run_s": _scaled(ops, "run_s"),
        "simulate_us_per_round": _scaled(ops, "simulate_us_per_round"),
        "finalize_s": _scaled(ops, "finalize_s"),
        "setup_s": _scaled(ops, "setup_s"),
        "peak_mb": peak_kb * 1024 / MB,
    }


def layer_metrics(bench: Bench, tracer: Tracer) -> dict:
    """Per-layer medians over the traced operations."""
    traced = bench.phase_ops("traced")
    per_op = tracer.per_op()
    empty = (0, 0.0)
    out = {}
    for name in LAYER_TIMES:
        out[f"{name}.self_s"] = statistics.median(
            op.get(name, empty)[1] * r["speed"]["run_s"] for op, r in zip(per_op, traced)
        )
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = statistics.median(op.get(name, empty)[0] for op in per_op)
    out["regret.offline_comparator.iterations"] = _median(traced, "iterations")
    out["harness.history_bytes"] = _median(traced, "history_bytes")
    out["trace.unattributed_frac"] = statistics.median(
        op[OP][1] / r["run_s"] for op, r in zip(per_op, traced)
    )
    out["trace.run_s"] = _scaled(traced, "run_s")
    # each traced operation against the untraced one just before it
    untraced = {r["iteration"]: r for r in bench.phase_ops("untraced")}
    out["trace.overhead_s"] = statistics.median(
        t["run_s"] * t["speed"]["run_s"] - u["run_s"] * u["speed"]["run_s"]
        for t in traced
        if (u := untraced.get(t["iteration"])) is not None
    )
    return out


def checked_outputs(bench: Bench) -> dict:
    """Outputs that are checked but not gated: regret moves with summation
    order at n >= 20, and an infinite theory bound proves nothing."""
    attempted = len(bench.ops) + len(bench.failures)
    out = {
        "workload": bench.workload.name,
        "attempted": attempted,
        "failed_frac": len(bench.failures) / attempted,
        "calibration_unit_s": statistics.median(bench.calibration.times),
    }
    if bench.ops:
        rec = bench.ops[0]
        slack = rec["theory_bound"] / rec["regret"] if rec["regret"] > 0 else math.inf
        out.update(
            regret=rec["regret"],
            theory_bound=rec["theory_bound"] if math.isfinite(rec["theory_bound"]) else "inf",
            bound_slack=slack if math.isfinite(slack) else "vacuous",
            comparator_iterations=rec["iterations"],
            csv_sha256=rec["csv_sha256"],
            # per-operation samples, unscaled, and each one's speed factor
            run_s_samples=[round(r["run_s"], 4) for r in bench.ops],
            finalize_s_samples=[round(r["finalize_s"], 4) for r in bench.ops],
            speed=[round(r["speed"]["run_s"], 4) for r in bench.ops],
        )
    return out


def run(harness, workload: Workload, seed: int, seconds: float, trace: bool, out_dir=OUT):
    """One benchmark run; returns (result line, checked outputs, tracer or None).

    Untraced, the loop fills `seconds` with untraced operations; traced, it
    alternates an untraced operation, the baseline for the tracing
    overhead, with a traced one that gives the layer split."""
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(harness, workload, seed, out_dir)
    probe = Tracer(harness, PROBE_LAYERS, bench.calibration.clock)
    steps = [(probe, "untraced")]
    tracer = None
    if trace:
        tracer = Tracer(harness, clock=bench.calibration.clock)
        steps.append((tracer, "traced"))
    missing = sorted({m for t, _ in steps for m in t.missing})
    if missing:
        print(json.dumps({"missing_layers": missing}))

    peak = {}

    def record_peak():
        peak["kb"] = _status_kb("VmHWM") - rss0_kb

    gc.collect()
    rss0_kb = _status_kb("VmRSS")
    bench.loop(steps, seconds, record_peak)

    correct = not bench.failures and not missing
    metrics, units = {}, {}
    if correct and trace:
        metrics, units = layer_metrics(bench, tracer), per_layer_units()
    elif correct:
        metrics, units = end_to_end_metrics(bench, peak["kb"]), END_TO_END
    result = {
        "correct": correct,
        "attempted": len(bench.ops) + len(bench.failures),
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, checked_outputs(bench), tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness = import_netdual()
    print(json.dumps({"machine": machine_info()}))
    workload = WORKLOADS[args.workload]
    result, checked, tracer = run(harness, workload, args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        tracer.save(OUT / f"{workload.name}-spans.npz")
    print(json.dumps({"checked": checked}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
