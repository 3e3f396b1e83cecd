"""2D torus topology, failure scenarios and connectivity queries.

Nodes are (row, col) tuples on an R x C wraparound grid with R, C >= 3, so
every node has four distinct neighbors. Links are undirected; a link is
identified canonically by its minimum-index endpoint plus the direction from
that endpoint. Failure scenarios freeze an i.i.d. Bernoulli draw over links
(bond mode) or nodes (site mode, which kills all incident links).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property

import numpy as np

from .streams import _integer, seeded, uniforms

NodeId = tuple[int, int]
LinkId = tuple[NodeId, "Direction"]


class Direction(IntEnum):
    """Port directions. N decreases the row, S increases it, E increases the
    column, W decreases it, all modulo the grid size. The cyclic order
    N, E, S, W is clockwise."""

    N = 0
    E = 1
    S = 2
    W = 3


DIRECTIONS = (Direction.N, Direction.E, Direction.S, Direction.W)

# lookup tables indexed by Direction value
_OPPOSITE = (2, 3, 0, 1)
_CLOCKWISE = (1, 2, 3, 0)
_COUNTERCW = (3, 0, 1, 2)
_DEAD_NODE = 1 << 4  # bit 4 of a node's byte: the node is dead, and so are its ports


class FailureMode(Enum):
    BOND = "bond"
    SITE = "site"


@dataclass(frozen=True)
class TorusTopology:
    rows: int
    cols: int

    def __post_init__(self):
        for name in ("rows", "cols"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.rows < 3 or self.cols < 3:
            raise ValueError(
                f"torus requires rows >= 3 and cols >= 3, got {self.rows}x{self.cols}"
            )

    @property
    def num_nodes(self) -> int:
        return self.rows * self.cols

    @property
    def num_links(self) -> int:
        return 2 * self.rows * self.cols

    def node_index(self, node: NodeId) -> int:
        r, c = node
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"node {node} outside {self.rows}x{self.cols} torus")
        return r * self.cols + c

    def node_at(self, index: int) -> NodeId:
        if not 0 <= index < self.num_nodes:
            raise ValueError(f"node index {index} outside {self.rows}x{self.cols} torus")
        return divmod(index, self.cols)


def build_torus(rows: int, cols: int) -> TorusTopology:
    return TorusTopology(rows, cols)


def diameter(topo: TorusTopology) -> int:
    """Largest hop distance between any two nodes."""
    return topo.rows // 2 + topo.cols // 2


@functools.lru_cache(maxsize=None)
def _neighbor_indices(rows: int, cols: int) -> np.ndarray:
    """Read-only (rows * cols, 4) array: row v holds v's neighbor indices in
    N, E, S, W order."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    shifts = ((1, 0), (-1, 1), (-1, 0), (1, 1))  # (roll, axis) per direction
    nbr = np.stack([np.roll(idx, k, a) for k, a in shifts], axis=-1).reshape(-1, 4)
    nbr.flags.writeable = False
    return nbr


@functools.lru_cache(maxsize=None)
def _neighbor_table(rows: int, cols: int):
    """Flat neighbor indices: entry 4*v + d is the index of v's neighbor in
    direction d. Shared by every hot loop; never mutated."""
    return _neighbor_indices(rows, cols).ravel().tolist()


def neighbor(topo: TorusTopology, node: NodeId, d: Direction) -> NodeId:
    nbr = _neighbor_table(topo.rows, topo.cols)
    return topo.node_at(nbr[4 * topo.node_index(node) + Direction(d)])


def canonical_link(topo: TorusTopology, node: NodeId, d: Direction) -> LinkId:
    """Canonical id of the undirected link at node's port d: the endpoint
    with the smaller index, plus the direction from it to the other end."""
    other = neighbor(topo, node, d)
    if topo.node_index(node) <= topo.node_index(other):
        return (node, Direction(d))
    return (other, Direction(_OPPOSITE[d]))


_EAST_SOUTH = (Direction.E, Direction.S)


def all_links(topo: TorusTopology) -> list[LinkId]:
    """Canonical ids of all links, in the fixed draw order: the E link of
    node 0, its S link, then the same pair for node 1 and so on. This order
    defines which uniform draw decides which link in bond scenarios."""
    nodes = map(topo.node_at, range(topo.num_nodes))
    return [canonical_link(topo, v, d) for v in nodes for d in _EAST_SOUTH]


@dataclass(frozen=True, eq=False)
class FailureScenario:
    """Frozen outcome of a failure draw on one topology.

    The alive network is stored only as one byte per node, a row of a
    `_scenario_bytes` array: entry v of _port_mask has bit d set when the
    link at node v's port d is up, and is _DEAD_NODE when node v is dead.
    Raises ValueError unless the row is one byte per node and is the
    `_scenario_bytes` of its own dead E ports, S ports and nodes.
    """

    topology: TorusTopology
    mode: FailureMode
    p: float
    seed: int
    _port_mask: bytes

    def __post_init__(self):
        object.__setattr__(self, "mode", FailureMode(self.mode))
        object.__setattr__(self, "_port_mask", bytes(self._port_mask))
        n = self.topology.num_nodes
        row = np.frombuffer(self._port_mask, dtype=np.uint8)[None]
        dead = (row >> Direction.E & 1 == 0, row >> Direction.S & 1 == 0, row == _DEAD_NODE)
        if row.size != n or not np.array_equal(row, _scenario_bytes(self.topology, *dead)):
            raise ValueError(f"scenario row must hold one byte per node ({n}), as drawn")

    @cached_property
    def failed_links(self) -> frozenset[LinkId]:
        """Canonical ids of every dead link, including those of dead nodes."""
        topo = self.topology
        mask = np.frombuffer(self._port_mask, dtype=np.uint8)
        ports = np.unpackbits(mask, bitorder="little").reshape(-1, 8)
        nodes, cols = np.nonzero(ports[:, Direction.E : Direction.S + 1] == 0)
        return frozenset(
            canonical_link(topo, topo.node_at(v), _EAST_SOUTH[d])
            for v, d in zip(nodes.tolist(), cols.tolist())
        )

    @cached_property
    def failed_nodes(self) -> frozenset[NodeId]:
        dead = np.flatnonzero(np.frombuffer(self._port_mask, dtype=np.uint8) == _DEAD_NODE)
        return frozenset(map(self.topology.node_at, dead.tolist()))

    @cached_property
    def _component_labels(self) -> np.ndarray:
        """Connected-component label per node index over the alive network:
        the smallest node index of the component; dead nodes get -1."""
        topo = self.topology
        return _stack_labels(topo.rows, topo.cols, np.frombuffer(self._port_mask, dtype=np.uint8))

    def __repr__(self):
        return (
            f"FailureScenario({self.topology.rows}x{self.topology.cols}, "
            f"{self.mode.value}, p={self.p}, seed={self.seed}, "
            f"{len(self.failed_links)} dead links, {len(self.failed_nodes)} dead nodes)"
        )


def _stack_labels(rows: int, cols: int, port_mask) -> np.ndarray:
    """Connected-component labels over a stack of scenarios of one shape.
    `port_mask` is a uint8 array holding the scenarios' node bytes back to
    back, so node v of scenario b is stack index b * rows * cols + v. A
    node's label is the smallest stack index of its component over the
    alive network, which lies in its own scenario's range; dead nodes
    (byte _DEAD_NODE) get -1."""
    n = rows * cols
    own = np.arange(port_mask.size)
    base = own[::n, None]  # each scenario's first stack index
    # row d holds every node's neighbor across port d, in its own
    # scenario's range; a dead port points back at its own node
    hop = np.empty((4, own.size), dtype=own.dtype)
    for d, row in enumerate(_neighbor_indices(rows, cols).T):
        hop[d] = np.where(port_mask >> d & 1, (row + base).ravel(), own)
    labels = own
    while True:
        # the node's own label must take part, or labels can oscillate
        low = np.minimum(labels, labels[hop].min(axis=0))
        low = low[low]
        if np.array_equal(low, labels):
            break
        labels = low
    labels[port_mask >= _DEAD_NODE] = -1
    return labels


def _scenario_bytes(topo: TorusTopology, dead_e, dead_s, dead_nodes):
    """Node bytes of a batch of scenarios, as one (B, n) uint8 array, from
    (B, n) boolean arrays over node indices that mark dead E ports, dead S
    ports and dead nodes. A dead node takes down its own four ports and the
    facing port of each neighbor, and its byte is _DEAD_NODE."""
    nbr = _neighbor_indices(topo.rows, topo.cols)

    def across(a, d):  # each scenario's entries at the neighbors across port d
        return a.take(nbr[:, d], axis=1)

    up_e = ~(dead_e | dead_nodes | across(dead_nodes, Direction.E))
    up_s = ~(dead_s | dead_nodes | across(dead_nodes, Direction.S))
    up_e, up_s = up_e.view(np.uint8), up_s.view(np.uint8)
    # bit d is port d, in N, E, S, W order; a W port is its west neighbor's
    # E port, an N port its north neighbor's S
    north, west = across(up_s, Direction.N), across(up_e, Direction.W)
    mask = north | up_e << 1 | up_s << 2 | west << 3
    mask[dead_nodes] = _DEAD_NODE
    return mask


def _draw_bytes(topo: TorusTopology, mode: FailureMode, p: float, streams):
    """_scenario_bytes of one failure draw per seeded stream (streams.seeded):
    row b takes the uniforms that NumPy's default_rng(seeds[b]).random()
    would draw, one per link in all_links order (bond) or per node (site),
    and the link or node fails when its uniform is below p. Every row comes
    from one streams.uniforms array pass."""
    p = _check_p(p)
    n = topo.num_nodes
    dead = uniforms(streams, topo.num_links if mode is FailureMode.BOND else n) < p
    if mode is FailureMode.BOND:
        dead = dead.reshape(-1, n, 2)
        return _scenario_bytes(topo, dead[..., 0], dead[..., 1], np.zeros_like(dead[..., 0]))
    no_links = np.zeros_like(dead)
    return _scenario_bytes(topo, no_links, no_links, dead)


def _apply_failures(topo: TorusTopology, mode: FailureMode, p: float, seed: int):
    return FailureScenario(topo, mode, p, seed, _draw_bytes(topo, mode, p, seeded([seed]))[0])


def apply_bond_failures(topo: TorusTopology, p: float, seed: int) -> FailureScenario:
    """Fail each link independently with probability p. Raises ValueError
    for a seed that is not a non-negative integer."""
    return _apply_failures(topo, FailureMode.BOND, p, seed)


def apply_site_failures(topo: TorusTopology, p: float, seed: int) -> FailureScenario:
    """Fail each node independently with probability p; a dead node takes
    all four incident links with it. Raises ValueError for a seed that is
    not a non-negative integer."""
    return _apply_failures(topo, FailureMode.SITE, p, seed)


def from_failures(topo: TorusTopology, links=(), nodes=()) -> FailureScenario:
    """Explicit scenario from iterables of dead (node, direction) links,
    named from either endpoint, and dead nodes, labelled as a bond draw at
    p = 0.0 with seed 0. Raises ValueError for a node off the grid."""
    dead = np.zeros((3, 1, topo.num_nodes), dtype=bool)  # E ports, S ports, nodes
    for node, d in links:
        d = Direction(d)
        if d == Direction.N or d == Direction.W:
            node, d = neighbor(topo, node, d), _OPPOSITE[d]
        dead[0 if d == Direction.E else 1, 0, topo.node_index(node)] = True
    for node in nodes:
        dead[2, 0, topo.node_index(node)] = True
    return FailureScenario(topo, FailureMode.BOND, 0.0, 0, _scenario_bytes(topo, *dead)[0])


def _check_p(p) -> float:
    """p as a float. Raises ValueError unless it is a non-bool number in [0, 1]."""
    real = not isinstance(p, bool) and isinstance(p, (int, float, np.integer, np.floating))
    if not (real and 0.0 <= p <= 1.0):
        raise ValueError(f"failure probability must be a number in [0, 1], got {p!r}")
    return float(p)


def is_node_alive(scenario: FailureScenario, node: NodeId) -> bool:
    return scenario._port_mask[scenario.topology.node_index(node)] != _DEAD_NODE


def is_link_alive(scenario: FailureScenario, node: NodeId, d: Direction) -> bool:
    return bool(scenario._port_mask[scenario.topology.node_index(node)] >> Direction(d) & 1)


def largest_component_fraction(scenario: FailureScenario) -> float:
    """Size of the largest alive connected component over the total node
    count. 0.0 if nothing is alive."""
    n = scenario.topology.num_nodes
    return _largest_component_fractions(scenario._component_labels, n)[0]


def _largest_component_fractions(labels, n: int) -> list[float]:
    """largest_component_fraction of every scenario in a _stack_labels
    stack of n-node scenarios."""
    sizes = np.bincount(labels[labels >= 0], minlength=labels.size)
    return (sizes.reshape(-1, n).max(axis=1) / n).tolist()


def is_connected_pair(scenario: FailureScenario, a: NodeId, b: NodeId) -> bool:
    labels = scenario._component_labels
    la = labels[scenario.topology.node_index(a)]
    lb = labels[scenario.topology.node_index(b)]
    return bool(la >= 0 and la == lb)
