"""Deterministic packet-level simulator for reverse-flow forwarding on 2D
torus networks under link (bond) and node (site) percolation."""

__version__ = "0.1.0"

from .analysis import AggregateMetrics, aggregate_sweep
from .forwarding import (
    EngineConfig,
    HopKind,
    HopRecord,
    Method,
    PacketOutcome,
    Verdict,
    default_engine_config,
    route_packet,
)
from .montecarlo import (
    ExperimentConfig,
    MethodTally,
    ReplicateResult,
    run_sweep,
    seed_for,
)
from .topology import (
    Direction,
    FailureMode,
    FailureScenario,
    TorusTopology,
    apply_bond_failures,
    apply_site_failures,
    build_torus,
    canonical_link,
    diameter,
    is_node_alive,
    largest_component_fraction,
    neighbor,
)
