"""Destination potentials, greedy routing tables and forward reachability.

Every destination d induces a potential: the hop distance to d on the intact
torus. Routing tables are frozen against that intact-network potential and
are never updated after failures; the forwarding strategies differ only in
what they do when the table's port is dead. A hop is a forward hop when it
strictly lowers the potential, otherwise it is a reverse hop.

The intact torus is translation symmetric, so one set of tables per shape,
built in closed form for destination index 0, serves every destination: a
node is looked up by its index relative to the destination, and the
neighbor table moves nodes the same way in either frame. Nothing is stored
per destination.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .topology import (
    Direction,
    FailureScenario,
    NodeId,
    TorusTopology,
    _neighbor_indices,
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


@functools.lru_cache(maxsize=None)
def _base_grids(rows: int, cols: int):
    """Read-only (rows, cols) potential and egress arrays for destination
    index 0. A node's minimal signed offsets (dr, dc) from the destination,
    as in signed_offsets, give potential |dr| + |dc|; its egress is the
    first port in N, E, S, W order whose neighbor lies one step closer, -1
    at the destination."""
    r, c = np.arange(rows), np.arange(cols)
    dr = np.where(2 * r > rows, r - rows, r)[:, None]
    dc = np.where(2 * c > cols, c - cols, c)[None, :]
    phi = np.abs(dr) + np.abs(dc)
    nxt = np.select(
        [dr > 0, (dc < 0) | (2 * dc == cols), dr < 0, dc > 0],
        [Direction.N, Direction.E, Direction.S, Direction.W],
        -1,
    )
    phi.flags.writeable = nxt.flags.writeable = False
    return phi, nxt


@functools.lru_cache(maxsize=None)
def _base_arrays(rows: int, cols: int):
    """Flat read-only potential, egress and one-hop-down arrays for
    destination index 0, indexed by a node's index relative to the
    destination (_relative_index). `down[v]` is the relative index of v's
    table neighbor, 0 at the destination."""
    phi, nxt = (grid.ravel() for grid in _base_grids(rows, cols))
    down = _neighbor_indices(rows, cols)[np.arange(rows * cols), nxt]
    down[0] = 0
    down.flags.writeable = False
    return phi, nxt, down


@functools.lru_cache(maxsize=None)
def _base_tables(rows: int, cols: int):
    """_base_arrays as lists, for the per-packet loops. The lists are
    shared and must not be mutated."""
    return tuple(table.tolist() for table in _base_arrays(rows, cols))


def _relative_index(rows: int, cols: int, v, dest):
    """Index of node v in the frame that puts dest at index 0; elementwise
    for numpy index arrays."""
    return (v // cols - dest // cols) % rows * cols + (v - dest) % cols


def _dest_frame(topo: TorusTopology, dest: NodeId, grid) -> list:
    """A base grid moved into node-index order for one destination."""
    shift = divmod(topo.node_index(dest), topo.cols)
    return np.roll(grid, shift, axis=(0, 1)).ravel().tolist()


def compute_potential(topo: TorusTopology, dest: NodeId) -> PotentialField:
    phi = _base_grids(topo.rows, topo.cols)[0]
    return PotentialField(topo, tuple(dest), tuple(_dest_frame(topo, dest, phi)))


def routing_table(topo: TorusTopology, dest: NodeId) -> RoutingTable:
    nxt = _base_grids(topo.rows, topo.cols)[1]
    egress = tuple(
        Direction(d) if d >= 0 else None for d in _dest_frame(topo, dest, nxt)
    )
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


def forward_reachable_set(scenario: FailureScenario, dest: NodeId) -> frozenset[NodeId]:
    """Nodes with at least one all-forward alive path to dest, found by
    walking forward edges backwards from dest. Adjacent potentials differ by
    at most one, so a node joins exactly when some alive neighbor one step
    below it is already reachable."""
    topo = scenario.topology
    if not is_node_alive(scenario, dest):
        raise ValueError(f"destination {dest} is not alive")
    dest_idx = topo.node_index(dest)
    phi = _base_tables(topo.rows, topo.cols)[0]
    nbr = _neighbor_table(topo.rows, topo.cols)
    ports = scenario._port_mask
    seen = bytearray(topo.num_nodes)
    seen[dest_idx] = 1
    # (node, relative index) pairs; a port leads to the same direction in
    # both frames
    stack = [(dest_idx, 0)]
    while stack:
        w, rel = stack.pop()
        up = phi[rel] + 1
        mask = ports[w]
        for d in range(4):
            if mask >> d & 1:
                u = nbr[4 * w + d]
                ru = nbr[4 * rel + d]
                if not seen[u] and phi[ru] == up:
                    seen[u] = 1
                    stack.append((u, ru))
    return frozenset(topo.node_at(i) for i in range(topo.num_nodes) if seen[i])
