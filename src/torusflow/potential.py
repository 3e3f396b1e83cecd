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

import numpy as np

from .topology import (
    FailureScenario,
    NodeId,
    TorusTopology,
    _neighbor_indices,
    _neighbor_table,
    is_node_alive,
)


@functools.lru_cache(maxsize=None)
def _base_grid(rows: int, cols: int):
    """Read-only (rows, cols) potential of destination index 0: the hop
    distance min(r, rows - r) + min(c, cols - c) of node (r, c), the one
    closed form of the torus metric."""
    r, c = np.arange(rows), np.arange(cols)
    phi = np.minimum(r, rows - r)[:, None] + np.minimum(c, cols - c)[None, :]
    phi.flags.writeable = False
    return phi


@functools.lru_cache(maxsize=None)
def _base_arrays(rows: int, cols: int):
    """Flat read-only arrays for destination index 0, indexed by a node's
    index relative to the destination (_relative_index): the potential
    `phi`; the table egress `nxt`, the first port in N, E, S, W order
    whose neighbor lies one step closer, -1 at the destination; `down`,
    the relative index of the table neighbor, 0 at the destination; and
    `desc`, with bit d set when port d lowers the potential, 0 at the
    destination. So the table port is the lowest bit of `desc`, and LFA's
    first alive descending port is the table port whenever that is up."""
    phi = _base_grid(rows, cols).ravel()
    nbr = _neighbor_indices(rows, cols)
    lower = phi[nbr] < phi[:, None]  # adjacent potentials differ by one
    desc = lower.astype(np.intp) @ (1 << np.arange(4))
    nxt = lower.argmax(axis=1)
    nxt[0] = -1
    down = nbr[np.arange(rows * cols), nxt]
    down[0] = 0
    for table in (nxt, down, desc):
        table.flags.writeable = False
    return phi, nxt, down, desc


@functools.lru_cache(maxsize=None)
def _base_tables(rows: int, cols: int):
    """_base_arrays as lists, for the per-packet loops. The lists are
    shared and must not be mutated."""
    return tuple(table.tolist() for table in _base_arrays(rows, cols))


def _relative_index(rows: int, cols: int, v, dest):
    """Index of node v in the frame that puts dest at index 0; elementwise
    for numpy index arrays."""
    return (v // cols - dest // cols) % rows * cols + (v - dest) % cols


def compute_potential(topo: TorusTopology, dest: NodeId) -> tuple[int, ...]:
    """Hop distance to dest of every node, by node index: the base
    potential rolled to dest. The engines read _base_tables instead."""
    shift = divmod(topo.node_index(dest), topo.cols)
    phi = np.roll(_base_grid(topo.rows, topo.cols), shift, axis=(0, 1))
    return tuple(phi.ravel().tolist())


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
