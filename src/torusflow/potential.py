"""Destination potentials, greedy routing tables and flow-field geometry.

Every destination d induces a potential: the hop distance to d on the intact
torus. Routing tables are frozen against that intact-network potential and
are never updated after failures; the forwarding strategies differ only in
what they do when the table's port is dead. A hop is a forward hop when it
strictly lowers the potential, otherwise it is a reverse hop.

The intact torus is translation symmetric, so every destination's tables
are a cyclic shift of the tables for node index 0, and those have a closed
form in the minimal signed offsets. Per-destination tables are cached in a
bounded LRU cache of 256 entries, so memory does not grow with the square of
the node count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .topology import (
    Direction,
    FailureScenario,
    NodeId,
    TorusTopology,
    _neighbor_table,
    is_node_alive,
)


@dataclass(frozen=True)
class PotentialField:
    """Hop distance to dest for every node, indexed by node index."""

    topology: TorusTopology
    dest: NodeId
    table: tuple[int, ...]

    def at(self, node: NodeId) -> int:
        return self.table[self.topology.node_index(node)]


@dataclass(frozen=True)
class RoutingTable:
    """Table egress per node: the first direction in N, E, S, W order whose
    neighbor sits one potential step closer to dest. None at dest itself."""

    topology: TorusTopology
    dest: NodeId
    egress: tuple

    def at(self, node: NodeId):
        return self.egress[self.topology.node_index(node)]


class FlowFieldClass(Enum):
    """Partition of nodes by their signed minimal offset from dest.

    The four fields are the open quadrants, lettered rotationally from the
    positive-positive one; boundaries collect zero or antipodal offsets.
    """

    FIELD_A = "A"  # dr > 0, dc > 0
    FIELD_B = "B"  # dr > 0, dc < 0
    FIELD_C = "C"  # dr < 0, dc < 0
    FIELD_D = "D"  # dr < 0, dc > 0
    BOUNDARY_ROW = "row"
    BOUNDARY_COL = "col"
    BOUNDARY_ANTIPODAL = "antipodal"
    DEST = "dest"


@functools.lru_cache(maxsize=None)
def _base_tables(rows: int, cols: int):
    """Potential and egress rows for destination index 0, each row doubled
    so that a cyclic shift is one slice. A node's minimal signed offsets
    (dr, dc) from the destination, as in signed_offsets, give potential
    |dr| + |dc|; its egress is the first port in N, E, S, W order whose
    neighbor lies one step closer, -1 at the destination."""
    phi_rows, nxt_rows = [], []
    for r in range(rows):
        dr = r - rows if 2 * r > rows else r
        phi_row, nxt_row = [], []
        for c in range(cols):
            dc = c - cols if 2 * c > cols else c
            phi_row.append(abs(dr) + abs(dc))
            if dr > 0:
                d = Direction.N
            elif dc < 0 or 2 * dc == cols:
                d = Direction.E
            elif dr < 0 or 2 * dr == rows:
                d = Direction.S
            elif dc > 0:
                d = Direction.W
            else:
                d = -1
            nxt_row.append(int(d))
        phi_rows.append(phi_row + phi_row)
        nxt_rows.append(nxt_row + nxt_row)
    return phi_rows, nxt_rows


@functools.lru_cache(maxsize=256)
def _dest_tables(rows: int, cols: int, dest_index: int):
    """(potential, egress direction) flat lists for one destination: the
    closed-form tables of destination index 0 shifted cyclically by the
    destination's row and column. At most 256 destinations stay cached,
    every destination of a 16x16 torus; the lists are shared and must not
    be mutated."""
    dest_r, dest_c = divmod(dest_index, cols)
    phi_rows, nxt_rows = _base_tables(rows, cols)
    lo, hi = cols - dest_c, 2 * cols - dest_c
    # preallocated so that the cached lists carry no spare capacity
    phi = [0] * (rows * cols)
    nxt = [0] * (rows * cols)
    for r in range(rows):
        base_r = (r - dest_r) % rows
        phi[r * cols:(r + 1) * cols] = phi_rows[base_r][lo:hi]
        nxt[r * cols:(r + 1) * cols] = nxt_rows[base_r][lo:hi]
    return phi, nxt


def compute_potential(topo: TorusTopology, dest: NodeId) -> PotentialField:
    phi, _ = _dest_tables(topo.rows, topo.cols, topo.node_index(dest))
    return PotentialField(topo, tuple(dest), tuple(phi))


def routing_table(topo: TorusTopology, dest: NodeId) -> RoutingTable:
    _, nxt = _dest_tables(topo.rows, topo.cols, topo.node_index(dest))
    egress = tuple(Direction(d) if d >= 0 else None for d in nxt)
    return RoutingTable(topo, tuple(dest), egress)


def is_forward_edge(potential: PotentialField, u: NodeId, v: NodeId) -> bool:
    """True when hopping u -> v strictly lowers the potential."""
    return potential.at(v) < potential.at(u)


def signed_offsets(topo: TorusTopology, dest: NodeId, v: NodeId) -> tuple[int, int]:
    """Minimal signed (row, col) offsets of v relative to dest, each in the
    half-open range (-dim/2, dim/2]."""
    dr = (v[0] - dest[0]) % topo.rows
    dc = (v[1] - dest[1]) % topo.cols
    if 2 * dr > topo.rows:
        dr -= topo.rows
    if 2 * dc > topo.cols:
        dc -= topo.cols
    return dr, dc


def classify_flow_field(topo: TorusTopology, dest: NodeId, v: NodeId) -> FlowFieldClass:
    dr, dc = signed_offsets(topo, dest, v)
    if dr == 0 and dc == 0:
        return FlowFieldClass.DEST
    if 2 * abs(dr) == topo.rows or 2 * abs(dc) == topo.cols:
        return FlowFieldClass.BOUNDARY_ANTIPODAL
    if dr == 0:
        return FlowFieldClass.BOUNDARY_ROW
    if dc == 0:
        return FlowFieldClass.BOUNDARY_COL
    if dr > 0:
        return FlowFieldClass.FIELD_A if dc > 0 else FlowFieldClass.FIELD_B
    return FlowFieldClass.FIELD_D if dc > 0 else FlowFieldClass.FIELD_C


def forward_reachable_set(scenario: FailureScenario, dest: NodeId) -> frozenset[NodeId]:
    """Nodes with at least one all-forward alive path to dest, found by
    walking forward edges backwards from dest. Adjacent potentials differ by
    at most one, so a node joins exactly when some alive neighbor one step
    below it is already reachable."""
    topo = scenario.topology
    if not is_node_alive(scenario, dest):
        raise ValueError(f"destination {dest} is not alive")
    dest_idx = topo.node_index(dest)
    phi, _ = _dest_tables(topo.rows, topo.cols, dest_idx)
    nbr = _neighbor_table(topo.rows, topo.cols)
    ports = scenario._port_bits
    seen = bytearray(topo.num_nodes)
    seen[dest_idx] = 1
    stack = [dest_idx]
    while stack:
        w = stack.pop()
        up = phi[w] + 1
        base = 4 * w
        for d in range(4):
            if ports[base + d]:
                u = nbr[base + d]
                if not seen[u] and phi[u] == up:
                    seen[u] = 1
                    stack.append(u)
    return frozenset(topo.node_at(i) for i in range(topo.num_nodes) if seen[i])
