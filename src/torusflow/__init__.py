"""Deterministic packet-level simulator for reverse-flow forwarding on 2D
torus networks under link (bond) and node (site) percolation."""

__version__ = "0.1.0"

from .analysis import (
    AggregateMetrics,
    CriticalPointEstimate,
    aggregate,
    aggregate_sweep,
    estimate_peak,
)
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
    replicate_inputs,
    run_replicate,
    run_sweep,
    seed_for,
)
from .potential import (
    FlowFieldClass,
    PotentialField,
    RoutingTable,
    classify_flow_field,
    compute_potential,
    forward_reachable_set,
    is_forward_edge,
    routing_table,
    signed_offsets,
)
from .topology import (
    Direction,
    FailureMode,
    FailureScenario,
    TorusTopology,
    alive_degree,
    all_links,
    apply_bond_failures,
    apply_site_failures,
    build_torus,
    canonical_link,
    clockwise,
    counterclockwise,
    diameter,
    from_failed_links,
    from_failed_nodes,
    is_connected_pair,
    is_link_alive,
    is_node_alive,
    largest_component_fraction,
    link_endpoints,
    neighbor,
    neighbors,
    opposite,
    torus_distance,
)
