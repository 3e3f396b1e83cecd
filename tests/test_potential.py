"""Potential field, frozen routing tables and forward reachability."""

import random
import tracemalloc
from collections import deque

import pytest

import reference_engine as ref
from torusflow.forwarding import Method, route_packet
from torusflow.potential import (
    _base_tables,
    _relative_index,
    compute_potential,
    forward_reachable_set,
)
from torusflow.topology import (
    DIRECTIONS,
    Direction,
    _neighbor_indices,
    all_links,
    apply_bond_failures,
    apply_site_failures,
    build_torus,
    from_failures,
    is_link_alive,
    is_node_alive,
    neighbor,
)

N, E, S, W = Direction.N, Direction.E, Direction.S, Direction.W


def all_nodes(topo):
    return [(r, c) for r in range(topo.rows) for c in range(topo.cols)]


def test_potential_equals_torus_distance_exhaustively():
    for rows, cols in ((4, 4), (5, 6)):
        topo = build_torus(rows, cols)
        for dest in all_nodes(topo):
            phi = compute_potential(topo, dest)
            for v in all_nodes(topo):
                assert phi[topo.node_index(v)] == ref.hop_distance(rows, cols, v, dest)


def neighbor_indices(topo):
    nodes = all_nodes(topo)
    return [
        [topo.node_index(neighbor(topo, v, d)) for d in DIRECTIONS] for v in nodes
    ]


def bfs_tables(nbrs, dest_index):
    """Independent oracle: breadth-first search over the intact torus for the
    potential, then the first descending port in N, E, S, W order."""
    phi = [-1] * len(nbrs)
    phi[dest_index] = 0
    queue = deque([dest_index])
    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if phi[u] < 0:
                phi[u] = phi[v] + 1
                queue.append(u)
    nxt = [-1] * len(nbrs)
    for v, around in enumerate(nbrs):
        if v != dest_index:
            nxt[v] = next(d for d, u in enumerate(around) if phi[u] == phi[v] - 1)
    return phi, nxt


def test_dest_tables_match_bfs_oracle_on_every_shape():
    """The base lists, read through each node's relative index, give every
    destination's BFS tables; `down` is the table neighbor's relative
    index, `desc` has bit d set exactly when port d lowers the BFS
    potential, and `table_bit` is the table port's bit."""
    for rows in range(3, 14):
        for cols in range(3, 14):
            n = rows * cols
            nbrs = neighbor_indices(build_torus(rows, cols))
            phi, nxt, down, desc, table_bit = _base_tables(rows, cols)
            for dest_index in range(n):
                rel = [_relative_index(rows, cols, v, dest_index) for v in range(n)]
                got = ([phi[r] for r in rel], [nxt[r] for r in rel])
                assert got == bfs_tables(nbrs, dest_index), (rows, cols, dest_index)
            assert desc[0] == table_bit[0] == 0
            want_phi = bfs_tables(nbrs, 0)[0]
            for v in range(1, n):
                assert down[v] == nbrs[v][nxt[v]], (rows, cols, v)
                lower = [want_phi[u] < want_phi[v] for u in nbrs[v]]
                assert desc[v] == sum(1 << d for d in range(4) if lower[d])
                assert table_bit[v] == 1 << nxt[v], (rows, cols, v)


def test_routing_to_every_64x64_destination_retains_little_memory():
    """No table is kept per destination. After one warm-up packet has built
    the shape's tables, routing one packet to each other destination of a
    64x64 torus retains less than 256 KiB; a cache of 256 destinations'
    flat potential and egress lists would hold 16 MiB."""
    topo = build_torus(64, 64)
    scen = apply_bond_failures(topo, 0.0, seed=0)
    route_packet(scen, Method.NF, (0, 0), (0, 1), record_trace=False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for dest_index in range(2, topo.num_nodes):
            dest = topo.node_at(dest_index)
            out = route_packet(scen, Method.NF, (0, 0), dest, record_trace=False)
            assert out.total_hops == ref.hop_distance(64, 64, (0, 0), dest)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024, retained


def test_potential_spot_check_large():
    topo = build_torus(16, 16)
    dest = (5, 11)
    phi = compute_potential(topo, dest)
    assert phi[topo.node_index(dest)] == 0
    for v in all_nodes(topo):
        assert phi[topo.node_index(v)] == ref.hop_distance(16, 16, v, dest)


def test_potential_is_lipschitz_on_links():
    topo = build_torus(5, 7)
    for dest in [(0, 0), (2, 3), (4, 6)]:
        phi = compute_potential(topo, dest)
        for link in all_links(topo):
            a, b = link[0], neighbor(topo, *link)
            assert abs(phi[topo.node_index(a)] - phi[topo.node_index(b)]) <= 1


def test_routing_table_tie_break_frozen():
    """Ambiguous egress goes to the first descending port in N, E, S, W
    order; these instances pin the order down."""
    nxt = _base_tables(4, 4)[1]
    assert nxt[0] == -1
    # antipodal column: E and W both descend, E comes first
    assert nxt[2] == E
    # antipodal row: N and S both descend, N comes first
    assert nxt[8] == N
    # doubly antipodal corner: all four descend
    assert nxt[10] == N
    # interior quadrant node with a unique best row move
    assert nxt[7] == N
    assert nxt[3] == E


def test_is_forward_edge():
    """Bit d of `desc` is set exactly when port d lowers the potential."""
    topo = build_torus(4, 5)
    desc = _base_tables(4, 5)[3]
    # (0, 1) descends west to the destination; the destination descends nowhere
    assert desc[1] >> W & 1
    assert desc[0] == 0
    # equal-potential neighbors exist on an odd dimension: no forward edge
    phi = compute_potential(topo, (0, 0))
    assert phi[topo.node_index((0, 2))] == phi[topo.node_index((0, 3))] == 2
    assert not desc[2] >> E & 1
    assert not desc[3] >> W & 1


def test_signed_offsets_frozen():
    """The minimal signed offset (dr, dc) of a node from the destination,
    each in the half-open range (-dim/2, dim/2], gives its potential
    |dr| + |dc|, and its sign the table egress: N for dr > 0, else E for
    dc < 0 or 2 dc = cols, else S for dr < 0, else W."""
    cases = [
        # (rows, cols, dest, v, (dr, dc), egress)
        (4, 4, (0, 0), (2, 0), (2, 0), N),
        (4, 4, (0, 0), (3, 0), (-1, 0), S),
        (4, 4, (0, 0), (0, 3), (0, -1), E),
        (4, 4, (0, 0), (0, 2), (0, 2), E),
        (16, 16, (5, 5), (13, 1), (8, -4), N),
        (5, 8, (1, 6), (4, 6), (-2, 0), S),
        (5, 8, (1, 6), (1, 1), (0, 3), W),
    ]
    for rows, cols, dest, v, (dr, dc), egress in cases:
        topo = build_torus(rows, cols)
        phi, nxt = _base_tables(rows, cols)[:2]
        rel = _relative_index(rows, cols, topo.node_index(v), topo.node_index(dest))
        assert phi[rel] == abs(dr) + abs(dc)
        assert nxt[rel] == egress, (rows, cols, dest, v)


def test_signed_offsets_range_and_distance():
    """Over every node of a 5x8 torus the potential and the table egress
    are those the half-open signed offsets give."""
    topo = build_torus(5, 8)
    dest = (1, 6)
    phi = compute_potential(topo, dest)
    nxt = _base_tables(5, 8)[1]
    for v in all_nodes(topo):
        dr = (v[0] - dest[0]) % 5
        dc = (v[1] - dest[1]) % 8
        dr, dc = dr - 5 * (2 * dr > 5), dc - 8 * (2 * dc > 8)
        dist = abs(dr) + abs(dc)
        assert phi[topo.node_index(v)] == dist == ref.hop_distance(5, 8, v, dest)
        rel = _relative_index(5, 8, topo.node_index(v), topo.node_index(dest))
        if dr > 0:
            assert nxt[rel] == N
        elif dc < 0 or 2 * dc == topo.cols:
            assert nxt[rel] == E
        elif dr < 0:
            assert nxt[rel] == S
        elif dc > 0:
            assert nxt[rel] == W
        else:
            assert v == dest and nxt[rel] == -1


def test_forward_reachable_set_intact_is_everything():
    topo = build_torus(4, 4)
    scen = apply_bond_failures(topo, 0.0, seed=0)
    assert forward_reachable_set(scen, (1, 2)) == frozenset(all_nodes(topo))


def test_forward_reachable_set_rejects_dead_dest():
    topo = build_torus(4, 4)
    scen = from_failures(topo, nodes=[(1, 1)])
    with pytest.raises(ValueError):
        forward_reachable_set(scen, (1, 1))


def test_forward_reachable_counterexample_single_link():
    """One dead link on a 4x4 torus leaves a node with no all-forward path:
    (1, 0) only descends through its link to the destination."""
    topo = build_torus(4, 4)
    scen = from_failures(topo, links=[((1, 0), N)])
    reach = forward_reachable_set(scen, (0, 0))
    assert (1, 0) not in reach
    # the other direct neighbors of the destination stay reachable
    for v in [(0, 1), (3, 0), (0, 3)]:
        assert v in reach
    assert len(reach) == 15


def downhill_reachable_oracle(scen, dest):
    """Independent recomputation: reverse BFS over alive links that step the
    closed-form distance up by one."""
    topo = scen.topology
    dist = {v: ref.hop_distance(topo.rows, topo.cols, v, dest) for v in all_nodes(topo)}
    seen = {dest}
    frontier = [dest]
    while frontier:
        nxt = []
        for w in frontier:
            for d in DIRECTIONS:
                u = neighbor(topo, w, d)
                if u in seen or not is_link_alive(scen, w, d):
                    continue
                if dist[u] == dist[w] + 1:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return frozenset(seen)


def test_forward_reachable_set_matches_oracle_on_random_scenarios():
    rng = random.Random(97)
    for rows, cols in ((5, 5), (4, 6)):
        topo = build_torus(rows, cols)
        nodes = all_nodes(topo)
        for trial in range(20):
            if trial % 2:
                scen = apply_bond_failures(topo, 0.25, seed=1000 + trial)
            else:
                scen = apply_site_failures(topo, 0.15, seed=2000 + trial)
            dest = rng.choice(nodes)
            if not is_node_alive(scen, dest):
                continue
            assert forward_reachable_set(scen, dest) == downhill_reachable_oracle(
                scen, dest
            )


def test_forward_reachable_set_shrinks_with_more_failures():
    topo = build_torus(6, 6)
    dest = (0, 0)
    links = all_links(topo)
    scen_small = from_failures(topo, links=links[:4])
    scen_big = from_failures(topo, links=links[:12])
    small = forward_reachable_set(scen_small, dest)
    big = forward_reachable_set(scen_big, dest)
    assert big <= small


def test_neighbors_order_matches_direction_order():
    topo = build_torus(4, 4)
    v = (2, 3)
    row = _neighbor_indices(4, 4)[topo.node_index(v)].tolist()
    assert row == [topo.node_index(neighbor(topo, v, d)) for d in DIRECTIONS]
