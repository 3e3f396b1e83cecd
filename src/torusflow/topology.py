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


def opposite(d: Direction) -> Direction:
    return Direction(_OPPOSITE[d])


def clockwise(d: Direction) -> Direction:
    return Direction(_CLOCKWISE[d])


def counterclockwise(d: Direction) -> Direction:
    return Direction(_COUNTERCW[d])


class FailureMode(Enum):
    BOND = "bond"
    SITE = "site"


@dataclass(frozen=True)
class TorusTopology:
    rows: int
    cols: int

    def __post_init__(self):
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
    return topo.node_at(nbr[4 * topo.node_index(node) + d])


def neighbors(topo: TorusTopology, node: NodeId) -> tuple[NodeId, ...]:
    """All four neighbors in N, E, S, W order."""
    return tuple(neighbor(topo, node, d) for d in DIRECTIONS)


def torus_distance(topo: TorusTopology, a: NodeId, b: NodeId) -> int:
    """Minimal hop count between a and b."""
    topo.node_index(a)
    topo.node_index(b)
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    return min(dr, topo.rows - dr) + min(dc, topo.cols - dc)


def canonical_link(topo: TorusTopology, node: NodeId, d: Direction) -> LinkId:
    """Canonical id of the undirected link at node's port d: the endpoint
    with the smaller index, plus the direction from it to the other end."""
    other = neighbor(topo, node, d)
    if topo.node_index(node) <= topo.node_index(other):
        return (node, Direction(d))
    return (other, opposite(d))


def link_endpoints(topo: TorusTopology, link: LinkId) -> tuple[NodeId, NodeId]:
    node, d = link
    return node, neighbor(topo, node, d)


_EAST_SOUTH = (Direction.E, Direction.S)


def all_links(topo: TorusTopology) -> list[LinkId]:
    """Canonical ids of all links, in the fixed draw order: the E link of
    node 0, its S link, then the same pair for node 1 and so on. This order
    defines which uniform draw decides which link in bond scenarios."""
    nodes = map(topo.node_at, range(topo.num_nodes))
    return [canonical_link(topo, v, d) for v in nodes for d in _EAST_SOUTH]


class FailureScenario:
    """Frozen outcome of a failure draw on one topology.

    The alive network is stored only as bytes, built by `_scenario_bytes`:
    entry 4*v + d of port_bits says whether the link at node v's port d is up
    (symmetric across its two endpoints), entry v of node_bits whether node v
    is up.
    """

    def __init__(
        self,
        topology: TorusTopology,
        mode: FailureMode,
        p: float,
        seed: int,
        port_bits: bytes,
        node_bits: bytes,
    ):
        self.topology = topology
        self.mode = mode
        self.p = p
        self.seed = seed
        self._port_bits = port_bits
        self._node_bits = node_bits

    @cached_property
    def failed_links(self) -> frozenset[LinkId]:
        """Canonical ids of every dead link, including those of dead nodes."""
        topo = self.topology
        ports = np.frombuffer(self._port_bits, dtype=np.uint8).reshape(-1, 4)
        nodes, cols = np.nonzero(ports[:, Direction.E : Direction.S + 1] == 0)
        return frozenset(
            canonical_link(topo, topo.node_at(v), _EAST_SOUTH[d])
            for v, d in zip(nodes.tolist(), cols.tolist())
        )

    @cached_property
    def failed_nodes(self) -> frozenset[NodeId]:
        dead = np.flatnonzero(np.frombuffer(self._node_bits, dtype=np.uint8) == 0)
        return frozenset(map(self.topology.node_at, dead.tolist()))

    @cached_property
    def _component_labels(self) -> np.ndarray:
        """Connected-component label per node index over the alive network:
        the smallest node index of the component; dead nodes get -1."""
        topo = self.topology
        n = topo.num_nodes
        up = np.frombuffer(self._port_bits, dtype=np.uint8).reshape(n, 4) != 0
        own = np.arange(n)
        # a dead port points back at its own node
        hop = np.where(up, _neighbor_indices(topo.rows, topo.cols), own[:, None])
        labels = own
        while True:
            # the node's own label must take part, or labels can oscillate
            low = np.minimum(labels, labels[hop].min(axis=1))
            low = low[low]
            if np.array_equal(low, labels):
                break
            labels = low
        labels[np.frombuffer(self._node_bits, dtype=np.uint8) == 0] = -1
        return labels

    def __repr__(self):
        return (
            f"FailureScenario({self.topology.rows}x{self.topology.cols}, "
            f"{self.mode.value}, p={self.p}, seed={self.seed}, "
            f"{len(self.failed_links)} dead links, {len(self.failed_nodes)} dead nodes)"
        )


def _scenario_bytes(topo: TorusTopology, dead_e, dead_s, dead_nodes):
    """Port and node bytes from boolean arrays over node indices that mark
    dead E ports, dead S ports and dead nodes. A dead node takes down its own
    four ports and the facing port of each neighbor."""
    nbr = _neighbor_indices(topo.rows, topo.cols)
    dead = np.empty((topo.num_nodes, 4), dtype=bool)
    dead[:, Direction.E] = dead_e | dead_nodes | dead_nodes[nbr[:, Direction.E]]
    dead[:, Direction.S] = dead_s | dead_nodes | dead_nodes[nbr[:, Direction.S]]
    # a W port is its west neighbor's E port, an N port its north neighbor's S
    dead[:, Direction.W] = dead[nbr[:, Direction.W], Direction.E]
    dead[:, Direction.N] = dead[nbr[:, Direction.N], Direction.S]
    return (~dead).tobytes(), (~dead_nodes).tobytes()


def apply_bond_failures(topo: TorusTopology, p: float, seed: int) -> FailureScenario:
    """Fail each link independently with probability p."""
    _check_p(p)
    rng = np.random.default_rng(seed)
    dead = (rng.random(topo.num_links) < p).reshape(topo.num_nodes, 2)
    no_nodes = np.zeros(topo.num_nodes, dtype=bool)
    bits = _scenario_bytes(topo, dead[:, 0], dead[:, 1], no_nodes)
    return FailureScenario(topo, FailureMode.BOND, p, seed, *bits)


def apply_site_failures(topo: TorusTopology, p: float, seed: int) -> FailureScenario:
    """Fail each node independently with probability p; a dead node takes
    all four incident links with it."""
    _check_p(p)
    rng = np.random.default_rng(seed)
    dead = rng.random(topo.num_nodes) < p
    no_links = np.zeros_like(dead)
    bits = _scenario_bytes(topo, no_links, no_links, dead)
    return FailureScenario(topo, FailureMode.SITE, p, seed, *bits)


def from_failures(
    topo: TorusTopology,
    links=(),
    nodes=(),
    mode: FailureMode = FailureMode.BOND,
    p: float = 0.0,
    seed: int = 0,
) -> FailureScenario:
    """Explicit scenario from iterables of dead (node, direction) links,
    named from either endpoint, and dead nodes. Raises ValueError for a node
    off the grid."""
    dead = np.zeros((3, topo.num_nodes), dtype=bool)  # E ports, S ports, nodes
    for node, d in links:
        d = Direction(d)
        if d == Direction.N or d == Direction.W:
            node, d = neighbor(topo, node, d), opposite(d)
        dead[0 if d == Direction.E else 1, topo.node_index(node)] = True
    for node in nodes:
        dead[2, topo.node_index(node)] = True
    bits = _scenario_bytes(topo, *dead)
    return FailureScenario(topo, mode, p, seed, *bits)


def from_failed_links(
    topo: TorusTopology, links, p: float = 0.0, seed: int = 0
) -> FailureScenario:
    """Explicit bond scenario from an iterable of (node, direction) links."""
    return from_failures(topo, links=links, p=p, seed=seed)


def from_failed_nodes(
    topo: TorusTopology, nodes, p: float = 0.0, seed: int = 0
) -> FailureScenario:
    """Explicit site scenario; induces failure of every incident link."""
    return from_failures(topo, nodes=nodes, mode=FailureMode.SITE, p=p, seed=seed)


def _check_p(p: float):
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {p}")


def is_node_alive(scenario: FailureScenario, node: NodeId) -> bool:
    return bool(scenario._node_bits[scenario.topology.node_index(node)])


def is_link_alive(scenario: FailureScenario, node: NodeId, d: Direction) -> bool:
    return bool(scenario._port_bits[4 * scenario.topology.node_index(node) + d])


def alive_degree(scenario: FailureScenario, node: NodeId) -> int:
    base = 4 * scenario.topology.node_index(node)
    bits = scenario._port_bits
    return bits[base] + bits[base + 1] + bits[base + 2] + bits[base + 3]


def largest_component_fraction(scenario: FailureScenario) -> float:
    """Size of the largest alive connected component over the total node
    count. 0.0 if nothing is alive."""
    labels = scenario._component_labels
    alive = labels[labels >= 0]
    if not alive.size:
        return 0.0
    return int(np.bincount(alive).max()) / scenario.topology.num_nodes


def is_connected_pair(scenario: FailureScenario, a: NodeId, b: NodeId) -> bool:
    labels = scenario._component_labels
    la = labels[scenario.topology.node_index(a)]
    lb = labels[scenario.topology.node_index(b)]
    return bool(la >= 0 and la == lb)
