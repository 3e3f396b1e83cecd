"""Packet forwarding strategies over a failed torus.

Four strategies share one frozen routing table:

  NF     drop as soon as the table's port is dead.
  LFA    fall back to the first alive strictly-descending port, else drop.
  RF_CF  reverse flow, counter-facing base policy (opposite port first).
  RF_LF  reverse flow, lateral-facing base policy (side ports first).

The reverse-flow strategies may push a packet against its potential. A node
recognizes such a packet because the table tells it to send the packet back
out of the port it came in; it then relays it by policy instead. When the
table egress differs from the ingress again the reverse flow ends there
(annihilation) and normal forwarding resumes. A per-packet hop counter
guards against policy-induced oscillation: once the hops since the last
event exceed the switch threshold, the packet flips policy and the counter
restarts.

Hops are classified by potential, not by mechanism: a hop is Forward exactly
when it strictly lowers the potential toward the destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .potential import PotentialField, RoutingTable, _dest_tables
from .topology import (
    Direction,
    FailureScenario,
    NodeId,
    TorusTopology,
    _neighbor_table,
    diameter,
    is_node_alive,
)

_OPP = (2, 3, 0, 1)
_CW = (1, 2, 3, 0)
_CCW = (3, 0, 1, 2)


class Method(Enum):
    NF = "NF"
    LFA = "LFA"
    RF_CF = "RF_CF"
    RF_LF = "RF_LF"


class Policy(Enum):
    OPPOSITE_FIRST = 0
    SIDE_FIRST = 1


class HopKind(Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


class Verdict(Enum):
    DELIVERED = "delivered"
    DROPPED_NO_EGRESS = "dropped_no_egress"
    DROPPED_TTL = "dropped_ttl"
    DROPPED_UNREACHABLE_DEST = "dropped_unreachable_dest"


@dataclass(frozen=True)
class EngineConfig:
    sst: int  # reverse hops tolerated since the last event before a policy switch
    ttl: int  # hard hop budget per packet

    def __post_init__(self):
        if self.sst < 1:
            raise ValueError(f"sst must be >= 1, got {self.sst}")
        if self.ttl < self.sst:
            raise ValueError(f"ttl must be >= sst, got ttl={self.ttl} sst={self.sst}")


def default_engine_config(topo: TorusTopology) -> EngineConfig:
    """Switch threshold of twice the diameter, budget of sixteen diameters."""
    dia = diameter(topo)
    return EngineConfig(sst=2 * dia, ttl=16 * dia)


@dataclass(frozen=True)
class HopRecord:
    from_node: NodeId
    to_node: NodeId
    direction: Direction
    kind: HopKind


@dataclass(frozen=True)
class PacketOutcome:
    verdict: Verdict
    trace: tuple[HopRecord, ...]
    total_hops: int
    reverse_hops: int
    used_reverse: bool
    annihilation_points: tuple[NodeId, ...]


def base_policy(method: Method) -> Policy:
    if method is Method.RF_CF:
        return Policy.OPPOSITE_FIRST
    if method is Method.RF_LF:
        return Policy.SIDE_FIRST
    raise ValueError(f"{method} has no reverse-flow policy")


def switch_policy(policy: Policy) -> Policy:
    return Policy(policy.value ^ 1)


# ---------------------------------------------------------------------------
# egress choice helpers; `base` is 4 * node_index into the port aliveness bits

def _gen_egress(ports, base: int, ref: int, policy: int) -> int:
    """Alternative egress when the table port `ref` is dead, or -1 to drop.
    With exactly two alive ports only the opposite of the dead port is
    considered; with three or more the policy order decides."""
    k = ports[base] + ports[base + 1] + ports[base + 2] + ports[base + 3]
    if k <= 1:
        return -1
    if k == 2:
        d = _OPP[ref]
        return d if ports[base + d] else -1
    if policy == 0:
        order = (_OPP[ref], _CW[ref], _CCW[ref])
    else:
        order = (_CW[ref], _CCW[ref], _OPP[ref])
    for d in order:
        if ports[base + d]:
            return d
    return -1


def _relay_egress(ports, base: int, ingress: int, policy: int) -> int:
    """Egress for a recognized reverse-flow packet. Falls back to bouncing
    out of the ingress port, which is alive by construction, so this always
    returns a port."""
    k = ports[base] + ports[base + 1] + ports[base + 2] + ports[base + 3]
    if k >= 3:
        if policy == 0:
            order = (_OPP[ingress], _CW[ingress], _CCW[ingress])
        else:
            order = (_CW[ingress], _CCW[ingress], _OPP[ingress])
        for d in order:
            if ports[base + d]:
                return d
        return ingress
    if k == 2:
        d = _OPP[ingress]
        return d if ports[base + d] else ingress
    return ingress


# ---------------------------------------------------------------------------
# per-strategy routing loops; verdict codes 0=delivered 1=no_egress 2=ttl

def _route_nf(ports, nbr, nxt, src: int, dst: int, ttl: int, record: bool):
    at = src
    hops = 0
    trace = [] if record else None
    while True:
        if at == dst:
            return 0, hops, 0, trace, None
        if hops >= ttl:
            return 2, hops, 0, trace, None
        base = 4 * at
        d = nxt[at]
        if not ports[base + d]:
            return 1, hops, 0, trace, None
        b = nbr[base + d]
        if record:
            trace.append((at, b, d, 0))
        at = b
        hops += 1


def _route_lfa(ports, nbr, phi, nxt, src: int, dst: int, ttl: int, record: bool):
    at = src
    hops = 0
    trace = [] if record else None
    while True:
        if at == dst:
            return 0, hops, 0, trace, None
        if hops >= ttl:
            return 2, hops, 0, trace, None
        base = 4 * at
        d = nxt[at]
        if not ports[base + d]:
            d = -1
            here = phi[at]
            for c in range(4):
                if ports[base + c] and phi[nbr[base + c]] < here:
                    d = c
                    break
            if d < 0:
                return 1, hops, 0, trace, None
        b = nbr[base + d]
        if record:
            trace.append((at, b, d, 0))
        at = b
        hops += 1


def _route_rf(
    ports, nbr, phi, nxt,
    src: int, dst: int, policy: int, sst: int, ttl: int, record: bool,
):
    at = src
    ingress = -1
    reverse_mode = False
    h_event = 0  # hops since the reverse flow began or last reset
    hops = 0
    rev_hops = 0
    trace = [] if record else None
    annih = [] if record else None
    while True:
        if at == dst:
            return 0, hops, rev_hops, trace, annih
        if hops >= ttl:
            return 2, hops, rev_hops, trace, annih
        base = 4 * at
        d = nxt[at]
        normal = True
        if reverse_mode:
            if d == ingress:
                # still flowing against the table; oscillation guard first
                if h_event > sst:
                    policy ^= 1
                    h_event = 0
                d = _relay_egress(ports, base, ingress, policy)
                h_event += 1
                normal = False
            else:
                if record:
                    annih.append(at)
                reverse_mode = False
                h_event = 0
        if normal:
            if not ports[base + d]:
                d = _gen_egress(ports, base, d, policy)
                if d < 0:
                    return 1, hops, rev_hops, trace, annih
                reverse_mode = True
                h_event = 1
        b = nbr[base + d]
        if phi[b] < phi[at]:
            if record:
                trace.append((at, b, d, 0))
        else:
            rev_hops += 1
            if record:
                trace.append((at, b, d, 1))
        ingress = _OPP[d]
        at = b
        hops += 1


def _route_indexed(
    scenario: FailureScenario,
    method: Method,
    src: int,
    dst: int,
    sst: int,
    ttl: int,
    record: bool,
):
    """Shared entry for the public wrapper and the Monte Carlo harness."""
    topo = scenario.topology
    ports = scenario._port_bits
    nbr = _neighbor_table(topo.rows, topo.cols)
    phi, nxt = _dest_tables(topo.rows, topo.cols, dst)
    if method is Method.NF:
        return _route_nf(ports, nbr, nxt, src, dst, ttl, record)
    if method is Method.LFA:
        return _route_lfa(ports, nbr, phi, nxt, src, dst, ttl, record)
    policy = 0 if method is Method.RF_CF else 1
    return _route_rf(ports, nbr, phi, nxt, src, dst, policy, sst, ttl, record)


_VERDICTS = (Verdict.DELIVERED, Verdict.DROPPED_NO_EGRESS, Verdict.DROPPED_TTL)


def route_packet(
    scenario: FailureScenario,
    method: Method,
    src: NodeId,
    dst: NodeId,
    config: EngineConfig | None = None,
    record_trace: bool = True,
) -> PacketOutcome:
    """Route one packet and report what happened.

    src and dst must be distinct alive nodes. With record_trace the outcome
    carries the full hop trace and annihilation points; without it those
    fields are empty and only the counters are filled, which is what the
    sweep harness uses.
    """
    topo = scenario.topology
    src = tuple(src)
    dst = tuple(dst)
    if src == dst:
        raise ValueError("src and dst must differ")
    if not is_node_alive(scenario, src) or not is_node_alive(scenario, dst):
        raise ValueError("src and dst must both be alive")
    cfg = config if config is not None else default_engine_config(topo)
    code, hops, rev_hops, trace, annih = _route_indexed(
        scenario, method, topo.node_index(src), topo.node_index(dst),
        cfg.sst, cfg.ttl, record_trace,
    )
    records = ()
    if trace:
        records = tuple(
            HopRecord(
                topo.node_at(a),
                topo.node_at(b),
                Direction(d),
                HopKind.REVERSE if kind else HopKind.FORWARD,
            )
            for a, b, d, kind in trace
        )
    return PacketOutcome(
        verdict=_VERDICTS[code],
        trace=records,
        total_hops=hops,
        reverse_hops=rev_hops,
        used_reverse=rev_hops > 0,
        annihilation_points=tuple(topo.node_at(i) for i in annih) if annih else (),
    )


# ---------------------------------------------------------------------------
# step-level operations, exposed for direct inspection and tests

def step_nf(scenario: FailureScenario, routing: RoutingTable, at: NodeId):
    """Table egress if its link is alive, else None (drop)."""
    d = routing.at(at)
    if d is None:
        raise ValueError("no egress at the destination")
    base = 4 * scenario.topology.node_index(at)
    return d if scenario._port_bits[base + d] else None


def step_lfa(
    scenario: FailureScenario,
    routing: RoutingTable,
    potential: PotentialField,
    at: NodeId,
):
    """First alive strictly-descending port in N, E, S, W order, else None."""
    d = routing.at(at)
    if d is None:
        raise ValueError("no egress at the destination")
    topo = scenario.topology
    ports = scenario._port_bits
    nbr = _neighbor_table(topo.rows, topo.cols)
    base = 4 * topo.node_index(at)
    here = potential.table[base // 4]
    for c in range(4):
        if ports[base + c] and potential.table[nbr[base + c]] < here:
            return Direction(c)
    return None


def rf_generate(
    scenario: FailureScenario, at: NodeId, reference: Direction, policy: Policy
):
    """Alternative egress when the table port (reference) is dead; None
    means the packet is dropped on the spot."""
    base = 4 * scenario.topology.node_index(at)
    d = _gen_egress(scenario._port_bits, base, int(reference), policy.value)
    return Direction(d) if d >= 0 else None


def rf_relay(
    scenario: FailureScenario, at: NodeId, ingress: Direction, policy: Policy
) -> Direction:
    """Egress for a recognized reverse-flow packet; bounces back out of the
    ingress port when every alternative is dead."""
    base = 4 * scenario.topology.node_index(at)
    return Direction(_relay_egress(scenario._port_bits, base, int(ingress), policy.value))


def detect_reverse(routing: RoutingTable, at: NodeId, ingress: Direction) -> bool:
    """A packet is in reverse flow at a node when the table would send it
    straight back out of its ingress port."""
    return routing.at(at) == ingress


def annihilate_check(routing: RoutingTable, at: NodeId, ingress: Direction) -> bool:
    """True when a reverse-flow packet stops being one at this node."""
    return routing.at(at) != ingress


def oscillation_check(policy: Policy, reverse_hops_since_event: int, sst: int):
    """Flip the policy and restart the counter once it exceeds sst."""
    if reverse_hops_since_event > sst:
        return switch_policy(policy), 0
    return policy, reverse_hops_since_event
