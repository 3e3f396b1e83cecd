"""Packet forwarding strategies over a failed torus.

Four strategies share one frozen routing table:

  NF     drop as soon as the table's port is dead.
  LFA    fall back to the first alive strictly-descending port, else drop.
  RF_CF  reverse flow, counter-facing base policy (opposite port first).
  RF_LF  reverse flow, lateral-facing base policy (side ports first).

The table port is the first descending port in N, E, S, W order, so NF and
LFA are one walk: take the first alive allowed port at every node, where NF
allows the table port alone and LFA every descending port.

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

import numpy as np

from .potential import _base_arrays, _base_tables, _relative_index
from .topology import (
    _CLOCKWISE as _CW,
    _COUNTERCW as _CCW,
    _OPPOSITE as _OPP,
    DIRECTIONS,
    Direction,
    FailureScenario,
    NodeId,
    TorusTopology,
    _neighbor_indices,
    _neighbor_table,
    diameter,
    is_node_alive,
)


class Method(Enum):
    NF = "NF"
    LFA = "LFA"
    RF_CF = "RF_CF"
    RF_LF = "RF_LF"


class HopKind(Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


class Verdict(Enum):
    DELIVERED = "delivered"
    DROPPED_NO_EGRESS = "dropped_no_egress"
    DROPPED_TTL = "dropped_ttl"


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


# ---------------------------------------------------------------------------
# the reverse-flow egress rule, shared by generation and relay; `mask` is a
# node's alive-port byte (bit d set when port d is up) and `ref` the table
# port, which at a relay is the ingress

def _egress(mask: int, ref: int, policy: int) -> int:
    """Egress for a reverse-flow event at a node, or -1 to drop. With three
    or more alive ports take the first alive one in the policy order:
    counter-facing (0) tries opposite, clockwise, then counter-clockwise of
    `ref`, lateral-facing (1) clockwise, counter-clockwise, then opposite.
    With two, take the opposite of `ref` if it is alive. Otherwise go back
    out of `ref` if it is alive, else drop. A generation has `ref` dead
    and a relay has it alive, so a relay never drops."""
    k = mask.bit_count()
    if k >= 3:
        if policy == 0:
            order = (_OPP[ref], _CW[ref], _CCW[ref])
        else:
            order = (_CW[ref], _CCW[ref], _OPP[ref])
        for d in order:
            if mask >> d & 1:
                return d
    if k == 2 and mask >> _OPP[ref] & 1:
        return _OPP[ref]
    return ref if mask >> ref & 1 else -1


# indexed by mask << 3 | ref << 1 | policy
_EGRESS = tuple(_egress(m, r, p) for m in range(16) for r in range(4) for p in range(2))


# ---------------------------------------------------------------------------
# routing loops, in two frames at once: `at` is the node index, which
# ports, neighbors, traces and loop keys use, and `rel` its index relative
# to the destination, which the base tables use (see
# potential._base_tables); a port leads to the same direction in both
# frames. Every packet walks its table path (NF) first, and one _continue
# loop per other method routes on every stop of a batch at a dead table
# port. Verdict codes 0=delivered 1=no_egress 2=ttl; a trace is a list of
# hop codes or None: a hop from node index `at` out of port d is the int
# at << 3 | d << 1 | kind, kind 1 for a reverse hop, so code >> 1 is the
# neighbor table's index 4 * at + d

# lowest set bit of a 4-bit port mask, -1 for none
_FIRST_PORT = tuple((m & -m).bit_length() - 1 for m in range(16))


def _descend(ports, nbr, allowed, at: int, rel: int, hops: int, ttl: int, trace):
    """Take the first alive port of `allowed[rel]` at every node; returns
    (code, node, rel, hops) at the destination, the ttl or the first node
    where no allowed port is alive. With the table port alone allowed
    (`table_bit`) this is NF, and every strategy takes these hops, so the
    others continue from a no-egress stop (code 1). With every descending
    port allowed (`desc`) it is LFA, since the table port is the first
    descending port."""
    while rel:  # relative index 0 is the destination
        if hops >= ttl:
            return 2, at, rel, hops
        d = _FIRST_PORT[ports[at] & allowed[rel]]
        if d < 0:
            return 1, at, rel, hops
        if trace is not None:
            trace.append(at << 3 | d << 1)
        at = nbr[4 * at + d]
        rel = nbr[4 * rel + d]
        hops += 1
    return 0, at, rel, hops


def _continue(method, stops, nbr, tables, sst: int, ttl: int, traces):
    """Route on with `method`, LFA or reverse flow, from every NF-prefix
    stop (port mask bytes, node, relative index, hops) at a dead table
    port. Returns lists of codes, hops and reverse hops, one entry per
    stop, and with `traces`, one trace list per stop holding its prefix,
    which the route extends, the stops' annihilation point lists (None for
    LFA or untraced).

    Reverse flow alternates a normal-mode loop, which follows the table
    while its port is up, with a reverse-mode loop from a generation at a
    dead table port to the annihilation where the table egress differs
    from the ingress again. Brent's cycle detection runs over generations
    and policy switches, keyed by (node, policy): a generation needs the
    table port dead and a switch needs it alive as the ingress, so the node
    fixes which event it is and the key fixes the rest of the route. Every
    cycle holds an event, since normal mode strictly descends and an
    endless reverse run must switch. A repeat skips whole periods, traced
    or not, copying the period's trace and annihilation entries."""
    nxt, down, desc = tables[1], tables[2], tables[3]
    record = traces is not None
    codes, hop_counts, rev_counts, annihs = [], [], [], []
    if method is Method.LFA:
        for i, (ports, at, rel, hops) in enumerate(stops):
            code, _, _, hops = _descend(
                ports, nbr, desc, at, rel, hops, ttl, traces[i] if record else None
            )
            codes.append(code)
            hop_counts.append(hops)
        return codes, hop_counts, [0] * len(stops), None
    start_policy = 0 if method is Method.RF_CF else 1
    for i, (ports, at, rel, hops) in enumerate(stops):
        trace = traces[i] if record else None
        annih = [] if record else None
        policy, rev_hops = start_policy, 0
        # Brent state: the saved key, its hop, reverse hop and annihilation counts
        saved, saved_hops, saved_rev, saved_ann, power, lam = -1, 0, 0, 0, 1, 1
        while True:
            while rel and hops < ttl:  # normal mode
                d = nxt[rel]
                if not ports[at] >> d & 1:
                    break
                if record:
                    trace.append(at << 3 | d << 1)
                at = nbr[4 * at + d]
                rel = down[rel]
                hops += 1
            else:
                code = 2 if rel else 0
                break
            d = _EGRESS[ports[at] << 3 | d << 1 | policy]  # generation
            if d < 0:
                code = 1
                break
            h_event = 1  # hops since the reverse flow began or last reset
            while True:  # reverse mode
                if h_event == 1:
                    key = 2 * at + policy
                    if key == saved:
                        # the current hop is still taken, hence ttl - 1
                        period = hops - saved_hops
                        q = (ttl - 1 - hops) // period
                        if record:
                            trace += trace[saved_hops:] * q  # len(trace) == hops
                            annih += annih[saved_ann:] * q
                        rev_hops += q * (rev_hops - saved_rev)
                        hops += q * period
                    elif lam == power:
                        saved, saved_hops, saved_rev = key, hops, rev_hops
                        saved_ann = len(annih) if record else 0
                        power, lam = 2 * power, 0
                    lam += 1
                if desc[rel] >> d & 1:
                    if record:
                        trace.append(at << 3 | d << 1)
                else:
                    rev_hops += 1
                    if record:
                        trace.append(at << 3 | d << 1 | 1)
                ingress = _OPP[d]
                at = nbr[4 * at + d]
                rel = nbr[4 * rel + d]
                hops += 1
                if not rel or hops >= ttl:
                    break
                d = nxt[rel]
                if d != ingress:
                    if record:
                        annih.append(at)
                    break
                # still flowing against the table; oscillation guard first
                if h_event > sst:
                    policy ^= 1
                    h_event = 0
                d = _EGRESS[ports[at] << 3 | d << 1 | policy]
                h_event += 1
        codes.append(code)
        hop_counts.append(hops)
        rev_counts.append(rev_hops)
        annihs.append(annih)
    return codes, hop_counts, rev_counts, annihs if record else None


def _route_pairs(ports, rows: int, cols: int, pairs, methods, sst: int, ttl: int, record):
    """Route one packet per (src, dst) node index pair over the port mask
    bytes `ports` with each of `methods`; returns per pair a list of one
    (code, hops, reverse hops, trace, annihilation points) per method.
    Until the first dead table port every method takes NF's hops, so that
    prefix is walked once per pair, and one _continue call per other
    method routes on from every pair's stop; with `record` each
    continuation extends its own copy of the prefix trace. Without it
    trace and annihilation points are None."""
    nbr = _neighbor_table(rows, cols)
    tables = _base_tables(rows, cols)
    table_bit = tables[4]
    routes, stops, stopped = [], [], []
    for src, dst in pairs:
        trace = [] if record else None
        rel = _relative_index(rows, cols, src, dst)
        code, at, rel, hops = _descend(ports, nbr, table_bit, src, rel, 0, ttl, trace)
        if code == 1:
            stopped.append(len(routes))
            stops.append((ports, at, rel, hops))
        routes.append([(code, hops, 0, trace, None)] * len(methods))
    for mi, method in enumerate(methods):
        if method is Method.NF or not stops:
            continue
        traces = [routes[k][mi][3][:] for k in stopped] if record else None
        codes, hops, revs, annihs = _continue(method, stops, nbr, tables, sst, ttl, traces)
        for j, k in enumerate(stopped):
            routes[k][mi] = (codes[j], hops[j], revs[j], traces and traces[j],
                             annihs and annihs[j])
    return routes


def _route_nf_stack(ports, base, at, rel, rows: int, cols: int, ttl: int):
    """NF's _descend for many packets at once, stepped in lockstep with numpy.
    `ports` is a uint8 stack of port masks (see topology._stack_labels),
    `base` each packet's scenario offset in it, and `at` and `rel` its node
    and relative index arrays. Returns code, node, relative index and hop
    arrays, each entry as _descend returns it for that packet."""
    nxt, down = _base_arrays(rows, cols)[1:3]
    nbr = _neighbor_indices(rows, cols).ravel()
    at, rel = at.copy(), rel.copy()
    code = np.zeros(at.size, dtype=np.uint8)
    hops = np.zeros(at.size, dtype=np.int32)
    live = np.flatnonzero(rel)  # relative index 0 is the destination
    step = 0
    while live.size and step < ttl:
        here, r = at[live], rel[live]
        d = nxt[r]
        up = (ports[base[live] + here] >> d & 1).astype(bool)
        code[live[~up]] = 1
        live, here, r, d = live[up], here[up], r[up], d[up]
        step += 1
        at[live] = nbr[4 * here + d]
        r = down[r]
        rel[live] = r
        hops[live] = step
        live = live[r != 0]
    code[live] = 2  # still on the way after ttl hops
    return code, at, rel, hops


_VERDICTS = (Verdict.DELIVERED, Verdict.DROPPED_NO_EGRESS, Verdict.DROPPED_TTL)
_KINDS = (HopKind.FORWARD, HopKind.REVERSE)


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
    fields are empty and only the counters are filled.
    """
    topo = scenario.topology
    src = tuple(src)
    dst = tuple(dst)
    if src == dst:
        raise ValueError("src and dst must differ")
    if not is_node_alive(scenario, src) or not is_node_alive(scenario, dst):
        raise ValueError("src and dst must both be alive")
    cfg = config if config is not None else default_engine_config(topo)
    pair = (topo.node_index(src), topo.node_index(dst))
    code, hops, rev_hops, trace, annih = _route_pairs(
        scenario._port_mask, topo.rows, topo.cols, [pair], (method,), cfg.sst, cfg.ttl,
        record_trace,
    )[0][0]
    records = ()
    if trace:
        nbr, node_at = _neighbor_table(topo.rows, topo.cols), topo.node_at
        hop = {  # one record per distinct code; a looping trace repeats its codes
            c: HopRecord(node_at(c >> 3), node_at(nbr[c >> 1]), DIRECTIONS[c >> 1 & 3],
                         _KINDS[c & 1]) for c in set(trace)
        }
        records = tuple(map(hop.__getitem__, trace))
    return PacketOutcome(
        verdict=_VERDICTS[code],
        trace=records,
        total_hops=hops,
        reverse_hops=rev_hops,
        used_reverse=rev_hops > 0,
        annihilation_points=tuple(topo.node_at(i) for i in annih) if annih else (),
    )
