"""Failure-disjoint backup forwarding rules, disjoint-path baselines, and a
deterministic data-plane failover simulator."""

from .baseline import (
    DisjointPair,
    disjoint_rules,
    suurballe_link_disjoint,
    suurballe_node_disjoint,
)
from .dataplane import Trace, simulate
from .metrics import (
    ExperimentConfig,
    ExperimentReport,
    MetricsRow,
    build_variant,
    measure,
    run_experiment,
)
from .protect import hybrid_rules, optimize, per_link_rules, per_node_rules
from .rules import ForwardingMatrix, Match, PRIMARY, link_fail, node_fail
from .spf import AffectedSets, ShortestPathTree, shortest_tree
from .topology import (
    FailureScenario,
    Link,
    Topology,
    generate_erdos_renyi,
    generate_lattice,
    generate_waxman,
    is_two_connected,
    load_topology,
    save_topology,
    unit_weights,
)

__version__ = "0.1.0"
