"""Decentralized online convex optimization by dual averaging.

A network of agents, each owning one block of a global decision vector,
plays against a stream of convex losses. Agents share dual information over
a communication structure: a static undirected graph with reversible
mixing weights, or a time-varying sequence of directed graphs driven by
push-sum. The package provides one dual-averaging engine over both kinds
of network, certified disagreement and regret bounds, a deterministic
simulation harness, and a CLI.
"""

from .core import ActionBox, BlockMap
from .engine import (
    CirculationEngine,
    DualAveragingEngine,
    PushSumEngine,
    unrolled_dual_check,
)
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
from .objectives import Objective, QuadraticLoss, lipschitz_constants, power_iteration
from .prox import project, prox_sup
from .regret import (
    ComparatorResult,
    RegretTrace,
    centralized_reference,
    circulation_disagreement_bound,
    circulation_regret_bound,
    decomposition_terms,
    inv_sqrt_step,
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
    backward_product,
    build_pushsum_matrix,
    check_geometric_decay,
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
    "CirculationEngine",
    "ComparatorError",
    "ComparatorResult",
    "ConfigError",
    "ContractionConstants",
    "DigraphSchedule",
    "DualAveragingEngine",
    "FixedEnvironment",
    "GraphReport",
    "Objective",
    "PushSumEngine",
    "QuadraticLoss",
    "RegretTrace",
    "ReversiblePair",
    "RunConfig",
    "SensingEnvironment",
    "StaticTopology",
    "SweepRow",
    "TopologyError",
    "UndirectedGraph",
    "backward_product",
    "build_pushsum_matrix",
    "centralized_reference",
    "check_geometric_decay",
    "circulation_disagreement_bound",
    "circulation_regret_bound",
    "config_from_dict",
    "contraction_constants",
    "decomposition_terms",
    "finalize",
    "inv_sqrt_step",
    "lazy_cycle_pair",
    "lipschitz_constants",
    "load_config",
    "load_graph",
    "network_regret",
    "offline_comparator",
    "power_iteration",
    "project",
    "prox_sup",
    "pushsum_disagreement_bound",
    "pushsum_regret_bound",
    "run",
    "simulate",
    "spectral_gap",
    "split_ring_schedule",
    "sweep",
    "topology_from_dict",
    "unrolled_dual_check",
    "validate_b_strong",
    "validate_reversible_pair",
    "write_sweep_csv",
    "write_trace_csv",
]
