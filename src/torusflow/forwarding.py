"""Packet forwarding strategies over a failed torus.

Four strategies share one frozen routing table:

  NF     drop as soon as the table's port is dead.
  LFA    fall back to the first alive strictly-descending port, else drop.
  RF_CF  reverse flow, counter-facing base policy (opposite port first).
  RF_LF  reverse flow, lateral-facing base policy (side ports first).

Every strategy follows the table while its port is up and differs only at
a dead table port: NF drops, LFA takes the first alive descending port
(exact, since the table port is the first one in N, E, S, W order) and the
reverse-flow strategies generate reverse flow.

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
# frames. _continue is the one scalar walk of the table for every method,
# from any start; _route_stack steps the table paths of a batch in lockstep
# first, since every method takes them, and continues from their stops.
# Verdict codes 0=delivered 1=no_egress 2=ttl; a trace is a list of hop
# codes or None: a hop from node index `at` out of port d is the int
# at << 3 | d << 1 | kind, kind 1 for a reverse hop, so code >> 1 is the
# neighbor table's index 4 * at + d

# lowest set bit of a 4-bit port mask, -1 for none
_FIRST_PORT = tuple((m & -m).bit_length() - 1 for m in range(16))


def _continue(method, starts, nbr, tables, sst: int, ttl: int, traces):
    """Route every start (port mask bytes, node, relative index, hops) on
    with `method`. Returns lists of codes, hops and reverse hops, one entry
    per start, and with `traces` (one list per start holding its prefix,
    which the route extends) one annihilation point list per start.

    A normal-mode loop follows the table while its port is up. At a dead
    table port NF drops; LFA takes the first alive descending port and
    stays in normal mode, dropping when there is none; reverse flow runs a
    reverse-mode loop from the generation to the annihilation where the
    table egress differs from the ingress again. Brent's cycle detection
    runs over generations and policy switches, keyed by (node, policy): a
    generation needs the table port dead and a switch needs it alive as
    the ingress, so the node fixes which event it is and the key fixes the
    rest of the route. Every cycle holds an event, since normal mode
    strictly descends and an endless reverse run must switch. A repeat
    skips whole periods, traced or not, copying the period's trace and
    annihilation entries."""
    nxt, desc = tables[1], tables[3]
    record = traces is not None
    lfa = method is Method.LFA
    reverse = method is Method.RF_CF or method is Method.RF_LF
    start_policy = 0 if method is Method.RF_CF else 1
    codes, hop_counts, rev_counts, annihs = [], [], [], []
    for i, (ports, at, rel, hops) in enumerate(starts):
        trace = traces[i] if record else None
        annih = [] if record else None
        policy, rev_hops = start_policy, 0
        # Brent state: the saved key, its hop, reverse hop and annihilation counts
        saved, saved_hops, saved_rev, saved_ann, power, lam = -1, 0, 0, 0, 1, 1
        while True:
            while rel and hops < ttl:  # normal mode
                d = nxt[rel]
                if not ports[at] >> d & 1:
                    if not lfa:
                        break
                    d = _FIRST_PORT[ports[at] & desc[rel]]
                    if d < 0:
                        break
                if record:
                    trace.append(at << 3 | d << 1)
                at = nbr[4 * at + d]
                rel = nbr[4 * rel + d]
                hops += 1
            else:
                code = 2 if rel else 0
                break
            d = _EGRESS[ports[at] << 3 | d << 1 | policy] if reverse else -1  # generation
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


def _route_stack(ports, rep, srcs, dsts, rows: int, cols: int, methods, sst: int,
                 ttl: int, record: bool = False):
    """Route packet k from node index srcs[k] to dsts[k] over row rep[k] of
    the (B, n) uint8 port mask stack `ports` with each of `methods`.
    Returns (methods, packets) arrays of verdict codes, hops and reverse
    hops, and with `record` also, per method, one trace and one
    annihilation point sequence per packet.

    Until the first dead table port every method takes NF's hops, so the
    table paths of all packets are stepped once, in lockstep with numpy,
    and NF's routes end there. One _continue call per other method routes
    on from every packet stopped at a dead table port. With `record` each
    step keeps its packets and hop codes; a stable sort on the packet
    index puts each packet's codes in step order, and every continuation
    extends its own copy of that prefix and returns its annihilation
    points."""
    nxt, down = _base_arrays(rows, cols)[1:3]
    nbr = _neighbor_indices(rows, cols).ravel()
    flat, base = ports.ravel(), rep * (rows * cols)
    at, rel = srcs.copy(), _relative_index(rows, cols, srcs, dsts)
    code = np.zeros(at.size, dtype=np.uint8)
    hops = np.zeros(at.size, dtype=np.int64)
    live = np.flatnonzero(rel)  # relative index 0 is the destination
    steps, step = [(live[:0], live[:0])], 0  # with record, (packets, hop codes)
    while live.size and step < ttl:
        here, r = at[live], rel[live]
        d = nxt[r]
        up = (flat[base[live] + here] >> d & 1).astype(bool)
        code[live[~up]] = 1
        live, here, r, d = live[up], here[up], r[up], d[up]
        if record:
            steps.append((live, here << 3 | d << 1))
        step += 1
        at[live] = nbr[4 * here + d]
        r = down[r]
        rel[live] = r
        hops[live] = step
        live = live[r != 0]
    code[live] = 2  # still on the way after ttl hops

    # row mi holds method mi's codes, hops and reverse hops
    codes = np.tile(code, (len(methods), 1))
    hop_counts = np.tile(hops, (len(methods), 1))
    rev = np.zeros_like(hop_counts)
    if record:
        who, hop_codes = (np.concatenate(x) for x in zip(*steps))
        hop_codes = hop_codes[np.argsort(who, kind="stable")].tolist()
        ends = np.cumsum(hops).tolist()
        prefixes = [hop_codes[e - h:e] for e, h in zip(ends, hops.tolist())]
        traces = [prefixes[:] for _ in methods]
        annihs = [[()] * at.size for _ in methods]
    stopped = np.flatnonzero(code == 1)
    masks = [row.tobytes() for row in ports]
    stops = [
        (masks[r], a, rl, h)
        for r, a, rl, h in zip(*(x[stopped].tolist() for x in (rep, at, rel, hops)))
    ]
    nbr, tables = _neighbor_table(rows, cols), _base_tables(rows, cols)
    for mi, method in enumerate(methods):
        if method is Method.NF or not stops:
            continue
        seeded = [prefixes[k][:] for k in stopped.tolist()] if record else None
        c, h, rv, ann = _continue(method, stops, nbr, tables, sst, ttl, seeded)
        codes[mi, stopped], hop_counts[mi, stopped], rev[mi, stopped] = c, h, rv
        if record:
            for j, k in enumerate(stopped.tolist()):
                traces[mi][k] = seeded[j]
                annihs[mi][k] = ann[j]
    if record:
        return codes, hop_counts, rev, traces, annihs
    return codes, hop_counts, rev


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

    src and dst must be distinct alive nodes; method may be a Method value.
    With record_trace the outcome carries the full hop trace and annihilation
    points; without it those fields are empty and only the counters are filled.
    """
    method = Method(method)
    topo = scenario.topology
    src = tuple(src)
    dst = tuple(dst)
    if src == dst:
        raise ValueError("src and dst must differ")
    if not is_node_alive(scenario, src) or not is_node_alive(scenario, dst):
        raise ValueError("src and dst must both be alive")
    cfg = config if config is not None else default_engine_config(topo)
    rows, cols, ports = topo.rows, topo.cols, scenario._port_mask
    nbr, tables = _neighbor_table(rows, cols), _base_tables(rows, cols)
    s, t = topo.node_index(src), topo.node_index(dst)
    trace = [] if record_trace else None
    (code,), (hops,), (rev_hops,), annihs = _continue(
        method, [(ports, s, _relative_index(rows, cols, s, t), 0)], nbr, tables,
        cfg.sst, cfg.ttl, None if trace is None else [trace],
    )
    records = ()
    if trace:
        node_at = topo.node_at
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
        annihilation_points=tuple(map(topo.node_at, annihs[0])) if record_trace else (),
    )
