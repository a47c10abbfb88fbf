"""Decentralized online convex optimization by dual averaging.

A network of agents, each owning one block of a global decision vector,
plays against a stream of convex losses. Agents share dual information over
a communication structure: a static undirected graph with reversible
mixing weights, or a time-varying sequence of directed graphs driven by
push-sum. The package provides one dual-averaging engine over both kinds
of network, certified disagreement and regret bounds, a deterministic
simulation harness, and a CLI.
"""

from .core import ActionBox, BlockMap, prox_sup
from .engine import DualAveragingEngine
from .errors import ComparatorError, ConfigError, TopologyError
from .harness import (
    FixedEnvironment,
    RunConfig,
    SensingEnvironment,
    SweepRow,
    config_from_dict,
    load_config,
    run,
    simulate,
    finalize,
    sweep,
    write_sweep_csv,
    write_trace_csv,
)
from .objectives import QuadraticLoss, lipschitz_constants
from .regret import (
    ComparatorResult,
    RegretTrace,
    circulation_disagreement_bound,
    circulation_regret_bound,
    decomposition_terms,
    network_regret,
    offline_comparator,
    pushsum_disagreement_bound,
    pushsum_regret_bound,
)
from .topology import (
    ContractionConstants,
    DigraphSchedule,
    GraphReport,
    ReversiblePair,
    StaticTopology,
    UndirectedGraph,
    build_pushsum_matrix,
    contraction_constants,
    lazy_cycle_pair,
    load_graph,
    spectral_gap,
    split_ring_schedule,
    topology_from_dict,
    validate_b_strong,
    validate_reversible_pair,
)

__version__ = "0.1.0"

__all__ = [
    "ActionBox",
    "BlockMap",
    "ComparatorError",
    "ComparatorResult",
    "ConfigError",
    "ContractionConstants",
    "DigraphSchedule",
    "DualAveragingEngine",
    "FixedEnvironment",
    "GraphReport",
    "QuadraticLoss",
    "RegretTrace",
    "ReversiblePair",
    "RunConfig",
    "SensingEnvironment",
    "StaticTopology",
    "SweepRow",
    "TopologyError",
    "UndirectedGraph",
    "build_pushsum_matrix",
    "circulation_disagreement_bound",
    "circulation_regret_bound",
    "config_from_dict",
    "contraction_constants",
    "decomposition_terms",
    "finalize",
    "lazy_cycle_pair",
    "lipschitz_constants",
    "load_config",
    "load_graph",
    "network_regret",
    "offline_comparator",
    "prox_sup",
    "pushsum_disagreement_bound",
    "pushsum_regret_bound",
    "run",
    "simulate",
    "spectral_gap",
    "split_ring_schedule",
    "sweep",
    "topology_from_dict",
    "validate_b_strong",
    "validate_reversible_pair",
    "write_sweep_csv",
    "write_trace_csv",
]
