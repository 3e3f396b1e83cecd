"""Torus geometry, link identity and failure-scenario semantics."""

import random
from collections import deque

import numpy as np
import pytest

from torusflow.potential import compute_potential
from torusflow.topology import (
    _CLOCKWISE,
    _COUNTERCW,
    _OPPOSITE,
    DIRECTIONS,
    Direction,
    FailureMode,
    FailureScenario,
    TorusTopology,
    all_links,
    apply_bond_failures,
    apply_site_failures,
    build_torus,
    canonical_link,
    diameter,
    from_failures,
    is_connected_pair,
    is_link_alive,
    is_node_alive,
    largest_component_fraction,
    neighbor,
    _scenario_bytes,
    _stack_labels,
)

N, E, S, W = Direction.N, Direction.E, Direction.S, Direction.W


def alive_degree(scenario, node):
    return sum(is_link_alive(scenario, node, d) for d in DIRECTIONS)


def torus_distance(topo, a, b):
    return compute_potential(topo, b)[topo.node_index(a)]


def test_direction_algebra():
    assert _OPPOSITE[N] == S and _OPPOSITE[S] == N
    assert _OPPOSITE[E] == W and _OPPOSITE[W] == E
    assert [_CLOCKWISE[d] for d in (N, E, S, W)] == [E, S, W, N]
    assert [_COUNTERCW[d] for d in (N, E, S, W)] == [W, N, E, S]
    for d in DIRECTIONS:
        assert _OPPOSITE[_OPPOSITE[d]] == d
        assert _CLOCKWISE[_COUNTERCW[d]] == d
        assert _COUNTERCW[_CLOCKWISE[d]] == d
        # the two lateral ports and the opposite one cover everything else
        assert {_OPPOSITE[d], _CLOCKWISE[d], _COUNTERCW[d]} == set(DIRECTIONS) - {d}


def test_direction_values_are_stable():
    # flat port tables index by these values, so they are part of the format
    assert (int(N), int(E), int(S), int(W)) == (0, 1, 2, 3)


def test_build_torus_rejects_degenerate_grids():
    for rows, cols in ((2, 4), (4, 2), (1, 1), (0, 5)):
        with pytest.raises(ValueError):
            build_torus(rows, cols)
    assert build_torus(3, 3).num_nodes == 9


def test_build_torus_takes_only_integers():
    """A float shape would build and then fail with TypeError at its first
    draw; NumPy integers are stored as the ints they equal."""
    for rows, cols in ((4.0, 4), (4, np.float64(5.0)), (True, 4), ("4", 4)):
        with pytest.raises(ValueError, match="must be an integer"):
            build_torus(rows, cols)
    topo = build_torus(np.int64(4), np.int32(5))
    assert topo == build_torus(4, 5)
    assert (type(topo.rows), type(topo.cols)) == (int, int)


def test_node_index_round_trip():
    topo = build_torus(5, 7)
    for idx in range(topo.num_nodes):
        assert topo.node_index(topo.node_at(idx)) == idx
    with pytest.raises(ValueError):
        topo.node_index((5, 0))
    with pytest.raises(ValueError):
        topo.node_index((0, -1))
    for off in (-1, topo.num_nodes, 99):
        with pytest.raises(ValueError):
            topo.node_at(off)


def test_neighbor_wraparound():
    topo = build_torus(4, 4)
    assert neighbor(topo, (0, 0), N) == (3, 0)
    assert neighbor(topo, (0, 0), E) == (0, 1)
    assert neighbor(topo, (0, 0), S) == (1, 0)
    assert neighbor(topo, (0, 0), W) == (0, 3)
    assert neighbor(topo, (3, 3), S) == (0, 3)
    assert neighbor(topo, (3, 3), E) == (3, 0)


def test_port_arguments_must_be_directions():
    topo = build_torus(4, 4)
    scen = apply_bond_failures(topo, 0.0, seed=0)
    assert neighbor(topo, (0, 0), 1) == (0, 1)
    for d in (4, 5, -1):
        with pytest.raises(ValueError):
            neighbor(topo, (0, 0), d)
        with pytest.raises(ValueError):
            canonical_link(topo, (0, 0), d)
        with pytest.raises(ValueError):
            is_link_alive(scen, (0, 0), d)


def test_neighbor_is_involutive_through_opposite():
    topo = build_torus(3, 5)
    for r in range(3):
        for c in range(5):
            for d in DIRECTIONS:
                u = neighbor(topo, (r, c), d)
                assert neighbor(topo, u, Direction(_OPPOSITE[d])) == (r, c)


def test_torus_distance_frozen_values():
    topo = build_torus(5, 8)
    assert torus_distance(topo, (0, 0), (3, 5)) == 2 + 3
    assert torus_distance(topo, (0, 0), (2, 4)) == 2 + 4
    assert torus_distance(topo, (4, 7), (0, 0)) == 1 + 1
    big = build_torus(16, 16)
    assert torus_distance(big, (0, 0), (8, 8)) == 16


def test_torus_distance_is_a_metric_on_small_grid():
    topo = build_torus(4, 5)
    nodes = [(r, c) for r in range(4) for c in range(5)]
    for a in nodes:
        for b in nodes:
            d = torus_distance(topo, a, b)
            assert d == torus_distance(topo, b, a)
            assert (d == 0) == (a == b)
            assert d <= diameter(topo)
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = rng.choice(nodes), rng.choice(nodes), rng.choice(nodes)
        assert torus_distance(topo, a, c) <= (
            torus_distance(topo, a, b) + torus_distance(topo, b, c)
        )


def test_diameter_frozen_values():
    assert diameter(build_torus(3, 3)) == 2
    assert diameter(build_torus(4, 4)) == 4
    assert diameter(build_torus(5, 5)) == 4
    assert diameter(build_torus(16, 16)) == 16
    assert diameter(build_torus(8, 12)) == 10


def test_all_links_count_and_draw_order():
    topo = build_torus(3, 3)
    links = all_links(topo)
    assert len(links) == topo.num_links == 2 * 9
    assert len(set(links)) == len(links)
    # draw order: E then S per node, row-major node order
    assert links[0] == ((0, 0), E)
    assert links[1] == ((0, 0), S)
    assert links[2] == ((0, 1), E)
    # the E link of (0, 2) wraps to (0, 0) and canonicalizes there
    assert links[4] == ((0, 0), W)


def test_canonical_link_agrees_from_both_endpoints():
    topo = build_torus(4, 4)
    for r in range(4):
        for c in range(4):
            for d in DIRECTIONS:
                link = canonical_link(topo, (r, c), d)
                other = neighbor(topo, (r, c), d)
                assert link == canonical_link(topo, other, Direction(_OPPOSITE[d]))
                a, b = link[0], neighbor(topo, *link)
                assert {a, b} == {(r, c), other}
                # the canonical endpoint carries the smaller index
                assert topo.node_index(link[0]) == min(
                    topo.node_index(a), topo.node_index(b)
                )


def test_bond_scenario_extremes():
    topo = build_torus(4, 4)
    clean = apply_bond_failures(topo, 0.0, seed=1)
    assert clean.failed_links == frozenset()
    assert clean.failed_nodes == frozenset()
    assert largest_component_fraction(clean) == 1.0

    burnt = apply_bond_failures(topo, 1.0, seed=1)
    assert len(burnt.failed_links) == topo.num_links
    assert burnt.failed_nodes == frozenset()
    for v in [(0, 0), (2, 3)]:
        assert is_node_alive(burnt, v)
        assert alive_degree(burnt, v) == 0
    # every node is its own component
    assert largest_component_fraction(burnt) == 1 / topo.num_nodes


def test_bond_scenario_determinism():
    topo = build_torus(6, 6)
    a = apply_bond_failures(topo, 0.3, seed=42)
    b = apply_bond_failures(topo, 0.3, seed=42)
    c = apply_bond_failures(topo, 0.3, seed=43)
    assert a.failed_links == b.failed_links
    assert a.failed_links != c.failed_links
    assert a.mode is FailureMode.BOND


def test_bond_failure_count_matches_binomial_mean():
    topo = build_torus(6, 6)
    p = 0.3
    counts = [len(apply_bond_failures(topo, p, seed=s).failed_links) for s in range(200)]
    mean = sum(counts) / len(counts)
    # 72 links, expectation 21.6, std of the mean about 0.28
    assert abs(mean - p * topo.num_links) < 1.5


def test_site_scenario_extremes_and_induced_links():
    topo = build_torus(4, 4)
    dead = apply_site_failures(topo, 1.0, seed=5)
    assert len(dead.failed_nodes) == topo.num_nodes
    assert len(dead.failed_links) == topo.num_links
    assert largest_component_fraction(dead) == 0.0
    assert dead.mode is FailureMode.SITE

    one = from_failures(topo, nodes=[(1, 1)])
    assert one.failed_nodes == frozenset({(1, 1)})
    expected = {canonical_link(topo, (1, 1), d) for d in DIRECTIONS}
    assert one.failed_links == frozenset(expected)
    assert not is_node_alive(one, (1, 1))
    for d in DIRECTIONS:
        assert not is_link_alive(one, (1, 1), d)
        v = neighbor(topo, (1, 1), d)
        assert is_node_alive(one, v)
        assert alive_degree(one, v) == 3


def test_site_failure_count_matches_binomial_mean():
    topo = build_torus(6, 6)
    p = 0.2
    counts = [len(apply_site_failures(topo, p, seed=s).failed_nodes) for s in range(200)]
    mean = sum(counts) / len(counts)
    # 36 nodes, expectation 7.2
    assert abs(mean - p * topo.num_nodes) < 0.8


def test_from_failed_links_normalizes_direction():
    topo = build_torus(3, 3)
    # (0, 2) -> E wraps to (0, 0); canonical id is ((0, 0), W)
    scen = from_failures(topo, links=[((0, 2), E)])
    assert scen.failed_links == frozenset({((0, 0), W)})
    assert not is_link_alive(scen, (0, 2), E)
    assert not is_link_alive(scen, (0, 0), W)
    assert is_link_alive(scen, (0, 0), E)
    assert alive_degree(scen, (0, 2)) == 3


def test_scenario_repr():
    drawn = apply_bond_failures(build_torus(4, 4), 0.3, seed=1)
    assert repr(drawn) == (
        "FailureScenario(4x4, bond, p=0.3, seed=1, 9 dead links, 0 dead nodes)"
    )
    topo = build_torus(3, 5)
    dead = np.zeros((3, 1, topo.num_nodes), dtype=bool)  # E ports, S ports, nodes
    dead[0, 0, 2] = dead[2, 0, 7] = True
    mask, alive = _scenario_bytes(topo, *dead)
    built = FailureScenario(topo, "site", 0.25, 9, mask[0], alive[0])
    assert built.mode is FailureMode.SITE
    assert built._port_mask == mask.tobytes() and built._node_bits == alive.tobytes()
    assert built.failed_nodes == {(1, 2)}
    assert repr(built) == (
        "FailureScenario(3x5, site, p=0.25, seed=9, 5 dead links, 1 dead nodes)"
    )


def test_scenario_rows_hold_one_byte_per_node():
    """A short row would build and then fail with IndexError at its first
    query."""
    topo = build_torus(4, 4)
    full = bytes([15] * 16), bytes([1] * 16)
    for ports, nodes in ((b"", b""), (full[0][:-1], full[1]), (full[0], full[1] + b"\1")):
        with pytest.raises(ValueError, match="one byte per node"):
            FailureScenario(topo, "bond", 0.0, 0, ports, nodes)
    assert largest_component_fraction(FailureScenario(topo, "bond", 0.0, 0, *full)) == 1.0


def test_invalid_probability_rejected():
    topo = build_torus(4, 4)
    for p in (-0.1, 1.5):
        with pytest.raises(ValueError):
            apply_bond_failures(topo, p, seed=0)
        with pytest.raises(ValueError):
            apply_site_failures(topo, p, seed=0)


def test_largest_component_with_one_isolated_node():
    topo = build_torus(4, 4)
    scen = from_failures(topo, links=[((0, 0), d) for d in DIRECTIONS])
    assert is_node_alive(scen, (0, 0))
    assert alive_degree(scen, (0, 0)) == 0
    assert largest_component_fraction(scen) == 15 / 16
    assert not is_connected_pair(scen, (0, 0), (1, 1))
    assert is_connected_pair(scen, (1, 1), (3, 2))
    assert is_connected_pair(scen, (2, 2), (2, 2))


def test_connected_pair_with_dead_endpoint_is_false():
    topo = build_torus(4, 4)
    scen = from_failures(topo, nodes=[(2, 2)])
    assert not is_connected_pair(scen, (2, 2), (0, 0))
    assert not is_connected_pair(scen, (0, 0), (2, 2))


def test_scenario_constructor_accepts_mixed_failures():
    topo = build_torus(4, 4)
    node = (1, 2)
    induced = {canonical_link(topo, node, d) for d in DIRECTIONS}
    extra = canonical_link(topo, (3, 3), E)
    scen = from_failures(topo, links=induced | {extra}, nodes={node})
    assert not is_node_alive(scen, node)
    assert not is_link_alive(scen, (3, 3), E)
    assert is_node_alive(scen, (3, 3))
    assert alive_degree(scen, (3, 3)) == 3


def drawn_failures(topo, mode, p, seed):
    """Dead links and dead nodes of a scenario, read straight off the uniform
    draw: the k-th draw decides all_links(topo)[k] in bond mode and node k in
    site mode, and a dead node takes its four links with it."""
    if mode is FailureMode.BOND:
        dead = np.flatnonzero(np.random.default_rng(seed).random(topo.num_links) < p)
        links = all_links(topo)
        return {links[k] for k in dead}, set()
    dead = np.flatnonzero(np.random.default_rng(seed).random(topo.num_nodes) < p)
    nodes = {topo.node_at(int(k)) for k in dead}
    return {canonical_link(topo, v, d) for v in nodes for d in DIRECTIONS}, nodes


def search_partition(topo, dead_links, dead_nodes):
    """Alive components as sets of nodes, by breadth-first search over the
    given link and node sets only."""
    seen, parts = set(), set()
    for start in map(topo.node_at, range(topo.num_nodes)):
        if start in seen or start in dead_nodes:
            continue
        seen.add(start)
        part, queue = {start}, deque([start])
        while queue:
            v = queue.popleft()
            for d in DIRECTIONS:
                u = neighbor(topo, v, d)
                if canonical_link(topo, v, d) in dead_links or u in seen:
                    continue
                seen.add(u)
                part.add(u)
                queue.append(u)
        parts.add(frozenset(part))
    return parts


def assert_labels_match(scen, dead_links, dead_nodes):
    topo = scen.topology
    labels = scen._component_labels
    parts = {}
    for idx, lab in enumerate(labels.tolist()):
        v = topo.node_at(idx)
        assert (lab == -1) == (v in dead_nodes)
        if lab >= 0:
            parts.setdefault(lab, set()).add(v)
    assert set(map(frozenset, parts.values())) == search_partition(
        topo, dead_links, dead_nodes
    )
    # each label is the smallest node index of its component
    for lab, part in parts.items():
        assert lab == min(map(topo.node_index, part))


DRAWS = {
    FailureMode.BOND: apply_bond_failures,
    FailureMode.SITE: apply_site_failures,
}


# bond percolation on the square lattice sets in at p = 1/2, site at about 0.407
@pytest.mark.parametrize(
    "mode, p_values",
    [
        (FailureMode.BOND, (0.45, 0.5, 0.55, 1.0)),
        (FailureMode.SITE, (0.35, 0.41, 0.45, 1.0)),
    ],
    ids=["bond", "site"],
)
def test_component_labels_match_search_on_draws(mode, p_values):
    for shape in ((3, 8), (5, 7), (7, 4), (16, 16)):
        topo = build_torus(*shape)
        for p in p_values:
            for seed in range(6):
                dead_links, dead_nodes = drawn_failures(topo, mode, p, seed)
                scen = DRAWS[mode](topo, p, seed)
                assert_labels_match(scen, dead_links, dead_nodes)


def test_stacked_labels_equal_each_scenarios_labels():
    """Labelling 16x16 draws stacked back to back gives each scenario its
    own labels moved into its stack range; a label outside that range would
    merge components of different scenarios."""
    topo = build_torus(16, 16)
    n = topo.num_nodes
    for mode, p_values in ((FailureMode.BOND, (0.45, 0.5, 0.05, 1.0)),
                           (FailureMode.SITE, (0.35, 0.41, 0.05, 1.0))):
        scens = [DRAWS[mode](topo, p, seed) for p in p_values for seed in range(3)]
        labels = _stack_labels(
            16, 16,
            np.frombuffer(b"".join(s._port_mask for s in scens), dtype=np.uint8),
            np.frombuffer(b"".join(s._node_bits for s in scens), dtype=np.uint8),
        )
        assert labels.shape == (len(scens) * n,)
        for b, scen in enumerate(scens):
            own = labels[b * n:(b + 1) * n]
            alive = own >= 0
            assert ((own[alive] >= b * n) & (own[alive] < (b + 1) * n)).all()
            moved = np.where(alive, own - b * n, -1)
            assert np.array_equal(moved, scen._component_labels), (mode, b)


def test_component_labels_follow_a_serpentine():
    # dead walls leave one path: rows 0, 2, 4, 6 over columns 0-7, joined at
    # column 7 through rows 1 and 5 and at column 0 through row 3, plus a
    # dead-end stub at (7, 0); a single dead link splits the path in two
    topo = build_torus(9, 9)
    gaps = {(1, 7), (3, 0), (5, 7), (7, 0)}
    walls = {(r, c) for r in (1, 3, 5, 7, 8) for c in range(9)} - gaps
    walls |= {(r, 8) for r in range(9)}
    whole = from_failures(topo, nodes=walls)
    dead_links = {canonical_link(topo, v, d) for v in walls for d in DIRECTIONS}
    assert_labels_match(whole, dead_links, walls)
    assert largest_component_fraction(whole) == 36 / 81

    cut = canonical_link(topo, (4, 3), E)
    split = from_failures(topo, links=[cut], nodes=walls)
    assert_labels_match(split, dead_links | {cut}, walls)
    assert not is_connected_pair(split, (0, 0), (6, 0))
    assert is_connected_pair(split, (4, 4), (6, 0))


def test_draw_order_and_hand_built_scenarios_agree():
    for shape in ((3, 8), (5, 7), (16, 16)):
        topo = build_torus(*shape)
        for mode, draw in DRAWS.items():
            for p in (0.05, 0.3, 0.7):
                for seed in range(5):
                    scen = draw(topo, p, seed)
                    dead_links, dead_nodes = drawn_failures(topo, mode, p, seed)
                    assert scen.failed_links == dead_links
                    assert scen.failed_nodes == dead_nodes
                    rebuilt = from_failures(
                        topo, links=scen.failed_links, nodes=scen.failed_nodes
                    )
                    assert rebuilt._port_mask == scen._port_mask
                    assert rebuilt._node_bits == scen._node_bits
                    for v in map(topo.node_at, range(topo.num_nodes)):
                        for d in DIRECTIONS:
                            alive = is_link_alive(scen, v, d)
                            u = neighbor(topo, v, d)
                            assert alive == is_link_alive(scen, u, _OPPOSITE[d])
                            assert alive == (
                                canonical_link(topo, v, d) not in dead_links
                                and v not in dead_nodes
                                and u not in dead_nodes
                            )


def test_hand_built_scenarios_reject_off_grid_nodes():
    topo = build_torus(4, 5)
    for off in ((-1, 0), (topo.rows, 0)):
        for d in DIRECTIONS:
            with pytest.raises(ValueError):
                from_failures(topo, links=[(off, d)])
        with pytest.raises(ValueError):
            from_failures(topo, nodes=[off])
        with pytest.raises(ValueError):
            from_failures(topo, links=[((0, 0), E)], nodes=[off])
