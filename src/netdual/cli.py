"""Command-line entry points.

Subcommands: run (simulate one config and write its trace), sweep (regret
growth across horizons), validate-graph (communication-structure checks
without simulating), bounds (a-priori regret bounds per horizon), and
check-invariants (run and verify the per-round inequalities). Summaries go
to standard output as single-line strict JSON, with null for a non-finite
number; CSV data goes to files only.

Exit codes: 0 success, 2 parse error, 3 validation failure, 4 runtime error.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .core import prox_sup
from .errors import ComparatorError, ConfigError, TopologyError
from .harness import (
    RunConfig,
    load_config,
    network_constants,
    run,
    run_generator,
    sweep,
    theory_bound,
    write_sweep_csv,
    write_trace_csv,
)
from .objectives import QuadraticLoss, lipschitz_constants
from .topology import StaticTopology, validate_reversible_pair

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _strict(value):
    """``value`` with every non-finite float, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


def _emit(payload: dict) -> None:
    """Print the payload as one line of strict (RFC 8259) JSON: a bound or
    value that is inf or NaN prints as null; vacuous_bounds names the
    infinite bounds of a run."""
    print(json.dumps(_strict(payload), separators=(", ", ": "), allow_nan=False))


def _fail(code: int, message: str, **extra) -> int:
    payload = {"error": message}
    payload.update(extra)
    _emit(payload)
    return code


def _load(args) -> RunConfig:
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _trace_checks(trace) -> dict:
    """Per-round inequality results for a finished run."""
    ok_regret = bool(np.all(trace.regret_partial <= trace.bound_partial + 1e-9))
    d_bound = trace.constants.get("disagreement_bound", math.inf)
    ok_disagreement = bool(np.all(trace.disagreement_squared <= d_bound * (1 + 1e-12) + 1e-12))
    checks = {
        "regret_within_partial_bound": ok_regret,
        "disagreement_within_bound": ok_disagreement,
        "regret_within_theory_bound": bool(trace.regret <= trace.theory_bound),
        "max_mean_field_residual": float(np.max(trace.mean_field_residual))
        if trace.T
        else 0.0,
    }
    if "max_weight_residual" in trace.constants:
        checks["max_weight_residual"] = trace.constants["max_weight_residual"]
    # a check against an infinite bound passes without proving anything
    checks["vacuous_bounds"] = [
        name
        for name, bound in (("disagreement_bound", d_bound), ("theory_bound", trace.theory_bound))
        if not math.isfinite(bound)
    ]
    return checks


def cmd_run(args) -> int:
    config = _load(args)
    trace = run(config)
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    write_trace_csv(trace, trace_path)
    checks = _trace_checks(trace)
    _emit(
        {
            "command": "run",
            "algorithm": trace.algorithm,
            "T": trace.T,
            "n": trace.n,
            "p": trace.p,
            "seed": trace.seed,
            "regret": trace.regret,
            "avg_regret": trace.average_regret,
            "theory_bound": trace.theory_bound,
            "comparator_value": trace.comparator_value,
            "comparator": {
                "iterations": trace.comparator_iterations,
                "residual": trace.comparator_residual,
            },
            "checks": checks,
            "trace": trace_path,
        }
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load(args)
    horizons = _parse_horizons(args.horizons)
    rows = sweep(config, horizons, cumulative=args.cumulative)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    write_sweep_csv(rows, path)
    _emit(
        {
            "command": "sweep",
            "algorithm": config.algorithm,
            "cumulative": bool(args.cumulative),
            "rows": [
                {
                    "T": r.T,
                    "regret": r.regret,
                    "avg_regret": r.avg_regret,
                    "theory_bound": r.theory_bound,
                }
                for r in rows
            ],
            "csv": path,
        }
    )
    return EXIT_OK


def cmd_validate_graph(args) -> int:
    config = load_config(args.config)
    net = config.topology
    if isinstance(net, StaticTopology):
        report = validate_reversible_pair(net.graph, net.pair)
        try:
            verdict = {"spectral_gap": network_constants(config).fields["spectral_gap"]}
        except TopologyError as e:  # a failed check, or a pair that does not mix
            verdict = {"error": str(e)}
        payload = {
            "command": "validate-graph",
            "mode": "static",
            "n": net.n,
            "checks": [
                {"name": c.name, "ok": c.ok, "violation": c.violation, "detail": c.detail}
                for c in report.checks
            ],
            "passed": "error" not in verdict,
            **verdict,
        }
    else:
        payload = {
            "command": "validate-graph", "mode": "schedule", "n": net.n, "period": net.period,
        }
        try:
            constants = network_constants(config).fields
            payload.update(B=constants.pop("B"), passed=True, constants=constants)
        except TopologyError as e:  # no window within the cap
            payload.update(B=None, passed=False, error=str(e))
    _emit(payload)
    return EXIT_OK if payload["passed"] else EXIT_VALIDATION


def _apriori_constants(config: RunConfig) -> tuple:
    """Gradient/curvature constants certified before any simulation, over the
    a-priori measurement ball of the environment the run would build."""
    env = config.environment.draw(config.p, run_generator(config))
    center, radius = env.measurement_ball()
    return lipschitz_constants(QuadraticLoss(env.A, center), config.box, radius, center)


def cmd_bounds(args) -> int:
    config = _load(args)
    # each horizon's config is checked as fresh sweep checks it: a period-0
    # schedule with fewer graphs than a horizon has rounds exits 2
    horizons = [replace(config, T=T).T for T in _parse_horizons(args.horizons)]
    network = network_constants(config)
    L, G = _apriori_constants(config)
    C = prox_sup(config.box)
    D = config.box.diameter
    # at T = 1 with C = 0 the bound is exactly its sqrt(T) coefficient
    coefficient = theory_bound(config, network, 1, L, G, D, 0.0)
    rows = [
        {
            "T": T,
            "bound": theory_bound(config, network, T, L, G, D, C),
            "sqrt_coefficient": coefficient,
        }
        for T in horizons
    ]
    _emit(
        {
            "command": "bounds",
            "algorithm": config.algorithm,
            "L": L,
            "G": G,
            "D": D,
            "C": C,
            **network.fields,
            "rows": rows,
        }
    )
    return EXIT_OK


def cmd_check_invariants(args) -> int:
    config = _load(args)
    trace = run(config)
    checks = _trace_checks(trace)
    mf_ok = checks["max_mean_field_residual"] <= 1e-8
    w_ok = checks.get("max_weight_residual", 0.0) <= 1e-9
    passed = (
        checks["regret_within_partial_bound"]
        and checks["disagreement_within_bound"]
        and checks["regret_within_theory_bound"]
        and mf_ok
        and w_ok
    )
    _emit(
        {
            "command": "check-invariants",
            "algorithm": trace.algorithm,
            "T": trace.T,
            "seed": trace.seed,
            "regret": trace.regret,
            "theory_bound": trace.theory_bound,
            "checks": {**checks, "mean_field_ok": mf_ok, "weights_ok": w_ok},
            "passed": passed,
        }
    )
    return EXIT_OK if passed else EXIT_VALIDATION


def _parse_horizons(text: str) -> list:
    try:
        horizons = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f'horizons must be a comma-separated integer list, got "{text}"')
    if not horizons:
        raise ConfigError("horizons list is empty")
    if min(horizons) < 0:
        raise ConfigError(f'horizons must be nonnegative, got "{text}"')
    return horizons


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netdual",
        description="Decentralized online dual-averaging simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, horizons=False, cumulative=False, out=False):
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        if out:
            sp.add_argument("--out", default=".", help="output directory")
        if horizons:
            sp.add_argument(
                "--horizons", required=True, help="comma-separated horizon list"
            )
        if cumulative:
            sp.add_argument(
                "--cumulative",
                action="store_true",
                help="measure horizons as prefixes of one long run",
            )

    common(sub.add_parser("run", help="simulate one run, write trace.csv"), out=True)
    common(
        sub.add_parser("sweep", help="regret growth across horizons"),
        horizons=True,
        cumulative=True,
        out=True,
    )
    common(sub.add_parser("validate-graph", help="check the communication structure"))
    common(sub.add_parser("bounds", help="a-priori regret bounds"), horizons=True)
    common(sub.add_parser("check-invariants", help="run and verify inequalities"))
    return parser


_HANDLERS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "validate-graph": cmd_validate_graph,
    "bounds": cmd_bounds,
    "check-invariants": cmd_check_invariants,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as e:
        return _fail(EXIT_PARSE, str(e), command=args.command)
    except TopologyError as e:
        return _fail(EXIT_VALIDATION, str(e), command=args.command)
    except ComparatorError as e:
        return _fail(
            EXIT_RUNTIME,
            str(e),
            command=args.command,
            best_value=e.value,
            grad_norm=e.grad_norm,
        )
    except (FloatingPointError, np.linalg.LinAlgError) as e:
        return _fail(EXIT_RUNTIME, f"numerical failure: {e}", command=args.command)
    except MemoryError as e:
        return _fail(EXIT_RUNTIME, f"out of memory: {e}", command=args.command)


if __name__ == "__main__":
    sys.exit(main())
