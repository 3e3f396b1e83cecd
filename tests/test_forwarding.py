"""Per-packet forwarding: frozen traces, egress rules and random scans
against the straight-line reference interpreter."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

import reference_engine as ref
from torusflow.forwarding import (
    EngineConfig,
    HopKind,
    Method,
    Verdict,
    _EGRESS,
    _VERDICTS,
    _continue,
    _route_stack,
    default_engine_config,
    route_packet,
)
from torusflow.potential import _base_tables, _relative_index, compute_potential
from torusflow.topology import (
    Direction,
    FailureMode,
    all_links,
    apply_bond_failures,
    apply_site_failures,
    build_torus,
    from_failures,
    _neighbor_table,
    is_node_alive,
    neighbor,
)

N, E, S, W = Direction.N, Direction.E, Direction.S, Direction.W

ALL_METHODS = (Method.NF, Method.LFA, Method.RF_CF, Method.RF_LF)


def hop_tuples(outcome):
    return [
        (h.from_node, h.to_node, h.direction, h.kind) for h in outcome.trace
    ]


def alive_pairs(scenario, rng, count):
    topo = scenario.topology
    nodes = [
        topo.node_at(i)
        for i in range(topo.num_nodes)
        if is_node_alive(scenario, topo.node_at(i))
    ]
    pairs = []
    while len(pairs) < count:
        a, b = rng.choice(nodes), rng.choice(nodes)
        if a != b:
            pairs.append((a, b))
    return pairs


# ---------------------------------------------------------------------------
# engine configuration

def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(sst=0, ttl=5)
    with pytest.raises(ValueError):
        EngineConfig(sst=4, ttl=3)
    cfg = EngineConfig(sst=1, ttl=1)
    assert (cfg.sst, cfg.ttl) == (1, 1)


@pytest.mark.parametrize("sst, ttl", [(16, 128.5), (True, 40), (2.0, 40), (3, "17")])
def test_engine_config_takes_only_integers(sst, ttl):
    """A float ttl would make the loop cut step back forever once the
    hops pass it, and True would run as sst 1."""
    with pytest.raises(ValueError, match="must be an integer"):
        EngineConfig(sst=sst, ttl=ttl)


def test_engine_config_takes_numpy_integers():
    """NumPy integers are stored as the ints they equal and route alike."""
    cfg = EngineConfig(np.int64(3), np.int64(17))
    assert (type(cfg.sst), type(cfg.ttl)) == (int, int)
    assert cfg == EngineConfig(3, 17)
    topo = build_torus(8, 8)
    scen = apply_bond_failures(topo, 0.3, seed=5)
    pairs = alive_pairs(scen, random.Random(5), 40)
    for m in ALL_METHODS:
        for src, dst in pairs:
            assert route_packet(scen, m, src, dst, cfg) == route_packet(
                scen, m, src, dst, EngineConfig(3, 17)), (m, src, dst)


def test_default_engine_config_scales_with_diameter():
    assert default_engine_config(build_torus(4, 4)) == EngineConfig(sst=8, ttl=64)
    assert default_engine_config(build_torus(16, 16)) == EngineConfig(sst=32, ttl=256)


# ---------------------------------------------------------------------------
# NF and LFA steps

def test_step_nf_and_lfa():
    topo = build_torus(4, 4)
    dest = (0, 0)
    net = ref.Net(4, 4)

    intact = apply_bond_failures(topo, 0.0, seed=0)
    for method in (Method.NF, Method.LFA):
        out = route_packet(intact, method, (2, 3), dest)
        assert out.trace[0].direction.name == ref.table_egress(net, (2, 3), dest)
        with pytest.raises(ValueError):
            route_packet(intact, method, dest, dest)

    # (0, 2) descends through E or W; kill E and LFA falls back to W
    broken = from_failures(topo, links=[((0, 2), E)])
    assert ref.table_egress(net, (0, 2), dest) == "E"
    nf = route_packet(broken, Method.NF, (0, 2), dest)
    assert nf.verdict is Verdict.DROPPED_NO_EGRESS
    assert nf.total_hops == 0
    lfa = route_packet(broken, Method.LFA, (0, 2), dest)
    assert lfa.verdict is Verdict.DELIVERED
    assert hop_tuples(lfa) == [
        ((0, 2), (0, 1), W, HopKind.FORWARD),
        ((0, 1), (0, 0), W, HopKind.FORWARD),
    ]

    # (0, 1) descends only through W; kill it and both drop
    cut = from_failures(topo, links=[((0, 1), W)])
    for method in (Method.NF, Method.LFA):
        out = route_packet(cut, method, (0, 1), dest)
        assert out.verdict is Verdict.DROPPED_NO_EGRESS
        assert out.total_hops == 0


# ---------------------------------------------------------------------------
# the egress table, on the states the engine reads it in: generation with
# the reference port dead, relay with it alive

def egress_args(scenario, at):
    return scenario._port_mask[scenario.topology.node_index(at)]


def egress(mask, port, policy):
    return _EGRESS[mask << 3 | port << 1 | policy]


def test_egress_table_matches_reference_on_every_state():
    at = (1, 2)
    policies = ("OPPOSITE_FIRST", "SIDE_FIRST")
    topo = build_torus(4, 4)
    states = 0
    mismatches = []
    for mask in range(16):
        dead = [d for d in range(4) if not mask >> d & 1]
        net = ref.Net(
            4, 4,
            dead_links=[(at, ref.move(4, 4, at, ref.PORT_ORDER[d])) for d in dead],
        )
        scenario = from_failures(topo, links=[(at, d) for d in dead])
        assert egress_args(scenario, at) == mask
        for r in range(4):
            port = ref.PORT_ORDER[r]
            for policy in range(2):
                if mask >> r & 1:
                    want = ref._relay_port(net, at, port, policies[policy])
                else:
                    want = ref._generation_port(net, at, port, policies[policy])
                want = -1 if want is None else ref.PORT_ORDER.index(want)
                states += 1
                if egress(mask, r, policy) != want:
                    mismatches.append((mask, r, policy))
    assert states == len(_EGRESS) == 128
    assert mismatches == []


def test_rf_generate_branches():
    """Generation runs only with the table port dead."""
    topo = build_torus(4, 4)
    at = (1, 1)
    cf, lf = 0, 1

    # three alive ports: opposite for counter-facing, clockwise for lateral
    no_ref = egress_args(from_failures(topo, links=[(at, N)]), at)
    assert egress(no_ref, N, cf) == S
    assert egress(no_ref, N, lf) == E
    no_e = egress_args(from_failures(topo, links=[(at, E)]), at)
    assert egress(no_e, E, cf) == W
    assert egress(no_e, E, lf) == S

    # exactly two alive ports: only the opposite of the reference counts
    two_opp = egress_args(from_failures(topo, links=[(at, N), (at, E)]), at)
    assert egress(two_opp, N, cf) == S
    assert egress(two_opp, N, lf) == S
    two_side = egress_args(from_failures(topo, links=[(at, N), (at, S)]), at)
    assert egress(two_side, N, cf) == -1
    assert egress(two_side, N, lf) == -1

    # one or zero alive ports: always drop
    one = egress_args(from_failures(topo, links=[(at, N), (at, E), (at, S)]), at)
    assert egress(one, N, cf) == -1
    none = egress_args(from_failures(topo, links=[(at, d) for d in (N, E, S, W)]), at)
    assert egress(none, N, lf) == -1


def test_rf_relay_branches_and_bounce():
    """Relay runs only with the ingress port alive."""
    topo = build_torus(4, 4)
    at = (2, 2)
    cf, lf = 0, 1

    intact = egress_args(apply_bond_failures(topo, 0.0, seed=0), at)
    assert egress(intact, N, cf) == S
    assert egress(intact, N, lf) == E

    # three alive, first choice dead: the policy order moves on
    no_opp = egress_args(from_failures(topo, links=[(at, S)]), at)
    assert egress(no_opp, N, cf) == E
    no_cw = egress_args(from_failures(topo, links=[(at, E)]), at)
    assert egress(no_cw, N, lf) == W

    # two alive with the opposite port up
    two_opp = egress_args(from_failures(topo, links=[(at, E), (at, W)]), at)
    assert egress(two_opp, N, cf) == S

    # two alive, opposite down: bounce back out of the ingress
    two_side = egress_args(from_failures(topo, links=[(at, E), (at, S)]), at)
    assert egress(two_side, N, cf) == N
    assert egress(two_side, N, lf) == N

    # only the ingress left
    one = egress_args(from_failures(topo, links=[(at, E), (at, S), (at, W)]), at)
    assert egress(one, N, lf) == N


# ---------------------------------------------------------------------------
# route_packet on frozen scenarios

def test_route_packet_validates_endpoints():
    topo = build_torus(4, 4)
    intact = apply_bond_failures(topo, 0.0, seed=0)
    with pytest.raises(ValueError):
        route_packet(intact, Method.NF, (1, 1), (1, 1))
    dead = from_failures(topo, nodes=[(2, 2)])
    with pytest.raises(ValueError):
        route_packet(dead, Method.NF, (2, 2), (0, 0))
    with pytest.raises(ValueError):
        route_packet(dead, Method.NF, (0, 0), (2, 2))


def test_route_packet_takes_method_values():
    """A method named by its value routes as the member; with the N link of
    (1, 1) dead only reverse flow delivers the packet."""
    scenario = from_failures(build_torus(8, 8), links=[((1, 1), N)])
    for method in ALL_METHODS:
        want = route_packet(scenario, method, (1, 1), (0, 1))
        assert route_packet(scenario, method.value, (1, 1), (0, 1)) == want
        assert (want.verdict is Verdict.DELIVERED) == (method in (Method.RF_CF, Method.RF_LF))
    for bad in ("rf_lf", "warp", 3):
        with pytest.raises(ValueError):
            route_packet(scenario, bad, (1, 1), (0, 1))


def test_fault_free_routes_are_shortest_for_every_method():
    topo = build_torus(4, 4)
    intact = apply_bond_failures(topo, 0.0, seed=0)
    nodes = [(r, c) for r in range(4) for c in range(4)]
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            want = ref.hop_distance(4, 4, src, dst)
            for method in ALL_METHODS:
                out = route_packet(intact, method, src, dst)
                assert out.verdict is Verdict.DELIVERED
                assert out.total_hops == want
                assert out.reverse_hops == 0
                assert not out.used_reverse
                assert out.annihilation_points == ()


def test_dead_primary_frozen_traces():
    """src (0, 1), dst (0, 0), the joining link dead. NF and LFA drop on the
    spot; both reverse-flow strategies detour in three hops."""
    topo = build_torus(4, 4)
    scen = from_failures(topo, links=[((0, 1), W)])
    src, dst = (0, 1), (0, 0)

    for method in (Method.NF, Method.LFA):
        out = route_packet(scen, method, src, dst)
        assert out.verdict is Verdict.DROPPED_NO_EGRESS
        assert out.total_hops == 0
        assert out.trace == ()

    cf = route_packet(scen, Method.RF_CF, src, dst)
    assert cf.verdict is Verdict.DELIVERED
    assert hop_tuples(cf) == [
        ((0, 1), (0, 2), E, HopKind.REVERSE),
        ((0, 2), (0, 3), E, HopKind.FORWARD),
        ((0, 3), (0, 0), E, HopKind.FORWARD),
    ]
    assert cf.total_hops == 3
    assert cf.reverse_hops == 1
    assert cf.used_reverse
    assert cf.annihilation_points == ((0, 2),)

    lf = route_packet(scen, Method.RF_LF, src, dst)
    assert lf.verdict is Verdict.DELIVERED
    assert hop_tuples(lf) == [
        ((0, 1), (3, 1), N, HopKind.REVERSE),
        ((3, 1), (3, 0), W, HopKind.FORWARD),
        ((3, 0), (0, 0), S, HopKind.FORWARD),
    ]
    assert lf.reverse_hops == 1
    assert lf.annihilation_points == ((3, 0),)


def test_unreachable_forward_node_frozen_traces():
    """src (1, 0) has no all-forward path to (0, 0) once their link dies,
    yet both reverse-flow strategies still deliver around it."""
    topo = build_torus(4, 4)
    scen = from_failures(topo, links=[((1, 0), N)])
    src, dst = (1, 0), (0, 0)

    for method in (Method.NF, Method.LFA):
        assert route_packet(scen, method, src, dst).verdict is Verdict.DROPPED_NO_EGRESS

    cf = route_packet(scen, Method.RF_CF, src, dst)
    assert hop_tuples(cf) == [
        ((1, 0), (2, 0), S, HopKind.REVERSE),
        ((2, 0), (3, 0), S, HopKind.FORWARD),
        ((3, 0), (0, 0), S, HopKind.FORWARD),
    ]
    assert cf.annihilation_points == ((3, 0),)

    lf = route_packet(scen, Method.RF_LF, src, dst)
    assert hop_tuples(lf) == [
        ((1, 0), (1, 1), E, HopKind.REVERSE),
        ((1, 1), (0, 1), N, HopKind.FORWARD),
        ((0, 1), (0, 0), W, HopKind.FORWARD),
    ]
    assert lf.annihilation_points == ((1, 1),)


def test_annihilation_without_reverse_hop():
    """A generated detour can still descend the potential when the table
    egress had a tie; the packet annihilates without a single reverse hop."""
    topo = build_torus(4, 4)
    scen = from_failures(topo, links=[((0, 2), E)])
    out = route_packet(scen, Method.RF_CF, (0, 2), (0, 0))
    assert out.verdict is Verdict.DELIVERED
    assert hop_tuples(out) == [
        ((0, 2), (0, 1), W, HopKind.FORWARD),
        ((0, 1), (0, 0), W, HopKind.FORWARD),
    ]
    assert out.reverse_hops == 0
    assert not out.used_reverse
    assert out.annihilation_points == ((0, 1),)

    lf = route_packet(scen, Method.RF_LF, (0, 2), (0, 0))
    assert lf.verdict is Verdict.DELIVERED
    assert hop_tuples(lf) == [
        ((0, 2), (1, 2), S, HopKind.REVERSE),
        ((1, 2), (1, 3), E, HopKind.FORWARD),
        ((1, 3), (0, 3), N, HopKind.FORWARD),
        ((0, 3), (0, 0), E, HopKind.FORWARD),
    ]
    assert lf.annihilation_points == ((1, 3),)


def test_ttl_exhaustion_frozen():
    topo = build_torus(4, 4)
    intact = apply_bond_failures(topo, 0.0, seed=0)
    cfg = EngineConfig(sst=1, ttl=1)
    out = route_packet(intact, Method.NF, (0, 2), (0, 0), cfg)
    assert out.verdict is Verdict.DROPPED_TTL
    assert out.total_hops == 1
    assert hop_tuples(out) == [((0, 2), (0, 3), E, HopKind.FORWARD)]


def test_record_trace_off_keeps_counters():
    topo = build_torus(4, 4)
    scen = from_failures(topo, links=[((0, 1), W)])
    full = route_packet(scen, Method.RF_LF, (0, 1), (0, 0), record_trace=True)
    bare = route_packet(scen, Method.RF_LF, (0, 1), (0, 0), record_trace=False)
    assert bare.trace == ()
    assert bare.annihilation_points == ()
    assert (bare.verdict, bare.total_hops, bare.reverse_hops, bare.used_reverse) == (
        full.verdict,
        full.total_hops,
        full.reverse_hops,
        full.used_reverse,
    )


# ---------------------------------------------------------------------------
# whole-trace properties on random scenarios

def test_trace_well_formedness_random():
    topo = build_torus(16, 16)
    rng = random.Random(31)
    phi_cache = {}
    cfg = default_engine_config(topo)
    for seed in range(12):
        scen = apply_bond_failures(topo, 0.08, seed=300 + seed)
        for src, dst in alive_pairs(scen, rng, 12):
            if dst not in phi_cache:
                phi_cache[dst] = compute_potential(topo, dst)
            phi = phi_cache[dst]
            for method in ALL_METHODS:
                out = route_packet(scen, method, src, dst, cfg)
                assert out.total_hops == len(out.trace)
                assert out.reverse_hops == sum(
                    1 for h in out.trace if h.kind is HopKind.REVERSE
                )
                assert out.used_reverse == (out.reverse_hops > 0)
                if out.trace:
                    assert out.trace[0].from_node == src
                    for a, b in zip(out.trace, out.trace[1:]):
                        assert a.to_node == b.from_node
                for h in out.trace:
                    to_phi = phi[topo.node_index(h.to_node)]
                    forward = to_phi < phi[topo.node_index(h.from_node)]
                    assert (h.kind is HopKind.FORWARD) == forward
                visited = {src} | {h.to_node for h in out.trace}
                assert set(out.annihilation_points) <= visited
                if out.verdict is Verdict.DELIVERED:
                    assert out.trace[-1].to_node == dst
                    froms = {h.from_node for h in out.trace}
                    assert set(out.annihilation_points) <= froms
                elif out.verdict is Verdict.DROPPED_TTL:
                    assert out.total_hops == cfg.ttl
                if method in (Method.NF, Method.LFA):
                    assert out.reverse_hops == 0
                    assert out.annihilation_points == ()


def test_delivered_rf_traces_end_in_forward_descent():
    topo = build_torus(16, 16)
    rng = random.Random(77)
    phi_cache = {}
    for seed in range(10):
        scen = apply_bond_failures(topo, 0.04, seed=500 + seed)
        for src, dst in alive_pairs(scen, rng, 10):
            if dst not in phi_cache:
                phi_cache[dst] = compute_potential(topo, dst)
            phi = phi_cache[dst]
            for method in (Method.RF_CF, Method.RF_LF):
                out = route_packet(scen, method, src, dst)
                if out.verdict is not Verdict.DELIVERED:
                    continue
                last_rev = -1
                for i, h in enumerate(out.trace):
                    if h.kind is HopKind.REVERSE:
                        last_rev = i
                for h in out.trace[last_rev + 1 :]:
                    to_phi = phi[topo.node_index(h.to_node)]
                    assert to_phi == phi[topo.node_index(h.from_node)] - 1


def test_nf_delivery_implies_all_methods_deliver_same_length():
    topo = build_torus(6, 6)
    rng = random.Random(13)
    for seed in range(40):
        scen = apply_bond_failures(topo, 0.15, seed=seed)
        for src, dst in alive_pairs(scen, rng, 10):
            nf = route_packet(scen, Method.NF, src, dst, record_trace=False)
            if nf.verdict is not Verdict.DELIVERED:
                continue
            for method in (Method.LFA, Method.RF_CF, Method.RF_LF):
                out = route_packet(scen, method, src, dst, record_trace=False)
                assert out.verdict is Verdict.DELIVERED
                assert out.total_hops == nf.total_hops


def test_policy_switch_changes_outcomes_somewhere():
    """With a tiny switch threshold the policy flip must actually engage:
    some packet routes differently than under an enormous threshold."""
    topo = build_torus(6, 6)
    dflt = default_engine_config(topo)
    tight = EngineConfig(sst=1, ttl=dflt.ttl)
    # counters never exceed the hop budget, so sst == ttl never switches
    loose = EngineConfig(sst=dflt.ttl, ttl=dflt.ttl)
    rng = random.Random(5)
    differs = 0
    for seed in range(60):
        scen = apply_bond_failures(topo, 0.3, seed=700 + seed)
        for src, dst in alive_pairs(scen, rng, 10):
            for method in (Method.RF_CF, Method.RF_LF):
                a = route_packet(scen, method, src, dst, tight, record_trace=False)
                b = route_packet(scen, method, src, dst, loose, record_trace=False)
                if (a.verdict, a.total_hops) != (b.verdict, b.total_hops):
                    differs += 1
    assert differs > 0


# ---------------------------------------------------------------------------
# agreement with the straight-line reference interpreter

def to_ref_net(scenario):
    topo = scenario.topology
    dead_links = [
        (v, neighbor(topo, v, d)) for v, d in scenario.failed_links
    ]
    return ref.Net(topo.rows, topo.cols, dead_links, scenario.failed_nodes)


def assert_outcome_matches(mine, want, where):
    """Verdict, counters, annihilation points and the trace hop for hop:
    the reference steps every hop of a loop that the engine copies."""
    assert mine.verdict.value == want["verdict"], where
    assert mine.total_hops == want["hops"], where
    assert mine.reverse_hops == want["reverse_hops"], where
    assert list(mine.annihilation_points) == want["annihilations"], where
    hops = [(h.from_node, h.to_node, h.direction.name, h.kind.value) for h in mine.trace]
    assert hops == want["trace"], where


def assert_outcomes_match(scenario, cfg, src, dst):
    net = to_ref_net(scenario)
    for method in ALL_METHODS:
        mine = route_packet(scenario, method, src, dst, cfg)
        want = ref.run(net, method.value, src, dst, cfg.sst, cfg.ttl)
        assert_outcome_matches(mine, want, (method, src, dst))


def test_matches_reference_on_random_bond_scenarios():
    topo = build_torus(6, 6)
    cfg = default_engine_config(topo)
    rng = random.Random(219)
    for seed in range(25):
        for p in (0.1, 0.3):
            scen = apply_bond_failures(topo, p, seed=4000 + seed)
            for src, dst in alive_pairs(scen, rng, 8):
                assert_outcomes_match(scen, cfg, src, dst)


def test_matches_reference_on_random_site_scenarios():
    topo = build_torus(6, 6)
    cfg = default_engine_config(topo)
    rng = random.Random(220)
    for seed in range(25):
        for p in (0.1, 0.2):
            scen = apply_site_failures(topo, p, seed=6000 + seed)
            alive = [
                topo.node_at(i)
                for i in range(topo.num_nodes)
                if is_node_alive(scen, topo.node_at(i))
            ]
            if len(alive) < 2:
                continue
            for src, dst in alive_pairs(scen, rng, 8):
                assert_outcomes_match(scen, cfg, src, dst)


def test_matches_reference_under_small_switch_thresholds():
    """Tiny thresholds force policy flips; the two implementations must
    still agree hop for hop."""
    topo = build_torus(6, 6)
    rng = random.Random(88)
    for sst in (1, 2, 3):
        cfg = EngineConfig(sst=sst, ttl=default_engine_config(topo).ttl)
        for seed in range(12):
            scen = apply_bond_failures(topo, 0.35, seed=8000 + seed)
            for src, dst in alive_pairs(scen, rng, 6):
                assert_outcomes_match(scen, cfg, src, dst)


def test_matches_reference_on_odd_and_rectangular_tori():
    """Odd and unequal sides change where potentials tie and where the
    antipodes fall; the scans above use the square 6x6 torus only."""
    rng = random.Random(221)
    shapes = ((3, 3), (3, 8), (5, 7), (7, 4), (9, 9), (4, 11), (10, 6))
    for rows, cols in shapes:
        topo = build_torus(rows, cols)
        dflt = default_engine_config(topo)
        configs = [EngineConfig(sst=sst, ttl=dflt.ttl) for sst in (1, 3)] + [dflt]
        for seed in range(8):
            scenarios = (
                apply_bond_failures(topo, 0.1, seed=9000 + seed),
                apply_bond_failures(topo, 0.3, seed=9000 + seed),
                apply_site_failures(topo, 0.15, seed=9000 + seed),
            )
            for scen in scenarios:
                for cfg in configs:
                    for src, dst in alive_pairs(scen, rng, 8):
                        assert_outcomes_match(scen, cfg, src, dst)


def test_prefix_property_against_reference():
    """Every method takes NF's hops until NF stops, the fact the sweep's
    shared table-path walk rests on; the untraced routes, loop cut
    included, equal the reference."""
    rng = random.Random(517)
    for rows, count in ((6, 30), (16, 10)):
        topo = build_torus(rows, rows)
        for seed in range(count):
            scen = apply_bond_failures(topo, 0.25, seed=9500 + seed)
            net = to_ref_net(scen)
            for sst in (1, default_engine_config(topo).sst):
                cfg = EngineConfig(sst=sst, ttl=default_engine_config(topo).ttl)
                for src, dst in alive_pairs(scen, rng, 4):
                    nf = ref.run(net, "NF", src, dst, cfg.sst, cfg.ttl)["trace"]
                    for method in ALL_METHODS:
                        want = ref.run(net, method.value, src, dst, cfg.sst, cfg.ttl)
                        assert want["trace"][:len(nf)] == nf, (method, src, dst)
                        bare = route_packet(scen, method, src, dst, cfg, False)
                        got = (bare.verdict.value, bare.total_hops, bare.reverse_hops)
                        assert got == (
                            want["verdict"], want["hops"], want["reverse_hops"]
                        ), (method, src, dst, sst)


def port_stack(scenarios):
    """The (B, n) port mask stack of `scenarios`, scenario b in row b."""
    return np.stack([np.frombuffer(scen._port_mask, np.uint8) for scen in scenarios])


def test_continue_batch_matches_reference():
    """Several bond and site scenarios, stacked one per row, route at once:
    through one _continue call per method and engine config, from every
    pair's source for all four methods and from the NF stops at a dead
    table port for the other three, untraced and with each trace seeded
    with its start's prefix, and through one _route_stack call for every
    method, traced and untraced. Every route must equal the reference
    route from its pair's source, so no policy, loop or trace state may
    leak from one packet into the next, and the traced stack must assemble
    each packet's table-path prefix from the lockstep steps in hop order;
    the batch holds ttl drops and dead ends among routes that deliver."""
    rng = random.Random(1515)
    methods = (Method.LFA, Method.RF_CF, Method.RF_LF)
    for rows, cols in ((16, 16), (8, 8), (5, 7)):
        topo = build_torus(rows, cols)
        nbr = _neighbor_table(rows, cols)
        tables = _base_tables(rows, cols)
        dflt = default_engine_config(topo)
        scenarios = [
            draw(topo, p, seed=9700 + seed)
            for seed in range(2)
            for draw, p in ((apply_bond_failures, 0.2), (apply_site_failures, 0.15))
        ]
        pairs = [(b, scen, to_ref_net(scen), *pair)
                 for b, scen in enumerate(scenarios)
                 for pair in alive_pairs(scen, rng, 12)]
        ports = port_stack(scenarios)
        rep, srcs, dsts = (np.array(x) for x in zip(*(
            (b, topo.node_index(src), topo.node_index(dst))
            for b, _, _, src, dst in pairs)))
        sources = [(scen._port_mask, s, _relative_index(rows, cols, s, t), 0)
                   for (_, scen, *_), s, t in zip(pairs, srcs.tolist(), dsts.tolist())]

        def hop(c):
            return (topo.node_at(c >> 3), topo.node_at(nbr[c >> 1]),
                    Direction(c >> 1 & 3).name, "reverse" if c & 1 else "forward")

        for cfg in (dflt, EngineConfig(1, dflt.ttl), EngineConfig(2, 40),
                    EngineConfig(3, 17)):
            wants = [[ref.run(net, m.value, src, dst, cfg.sst, cfg.ttl)
                      for _, _, net, src, dst in pairs] for m in ALL_METHODS]

            def check(m, starts, prefixes, ks):
                """Route `starts` with `m`, bare and traced, against the
                reference routes of pairs `ks`; returns the codes seen."""
                bare = _continue(m, starts, nbr, tables, cfg.sst, cfg.ttl, None)
                traces = [prefix[:] for prefix in prefixes]
                full = _continue(m, starts, nbr, tables, cfg.sst, cfg.ttl, traces)
                assert bare[:3] == full[:3] and bare[3] is None, (rows, m, cfg)
                for j, k in enumerate(ks):
                    want = wants[ALL_METHODS.index(m)][k]
                    where = (rows, cols, m, cfg, k)
                    assert (_VERDICTS[bare[0][j]].value, bare[1][j], bare[2][j]) == (
                        want["verdict"], want["hops"], want["reverse_hops"]), where
                    assert list(map(hop, traces[j])) == want["trace"], where
                    assert list(map(topo.node_at, full[3][j])) == want["annihilations"], where
                return set(bare[0])

            for m in ALL_METHODS:
                check(m, sources, [[] for _ in pairs], range(len(pairs)))
            nf_traces = [[] for _ in pairs]
            nf = _continue(Method.NF, sources, nbr, tables, cfg.sst, cfg.ttl, nf_traces)
            stopped = [k for k, c in enumerate(nf[0]) if c == 1]
            stops = []
            for k in stopped:
                mask, s = sources[k][:2]
                at = nbr[nf_traces[k][-1] >> 1] if nf_traces[k] else s
                stops.append((mask, at, _relative_index(rows, cols, at, int(dsts[k])), nf[1][k]))
            seen = set()
            for m in methods:
                seen |= check(m, stops, [nf_traces[k] for k in stopped], stopped)
            assert seen == {0, 1, 2}, (rows, cfg, seen)

            args = (ports, rep, srcs, dsts, rows, cols, ALL_METHODS, cfg.sst, cfg.ttl)
            codes, hops, revs, traces, annihs = _route_stack(*args, record=True)
            bare = _route_stack(*args)
            assert len(bare) == 3, (rows, cfg)
            for got, untraced in zip((codes, hops, revs), bare):
                assert np.array_equal(got, untraced), (rows, cfg)
            for mi, m in enumerate(ALL_METHODS):
                for k, want in enumerate(wants[mi]):
                    where = (rows, cols, m, cfg, k)
                    assert (_VERDICTS[codes[mi, k]].value, hops[mi, k], revs[mi, k]) == (
                        want["verdict"], want["hops"], want["reverse_hops"]), where
                    assert list(map(hop, traces[mi][k])) == want["trace"], where
                    annih = list(map(topo.node_at, annihs[mi][k]))
                    assert annih == want["annihilations"], where


# ---------------------------------------------------------------------------
# forwarding loops and single failures

def test_rf_cf_single_dead_node_loop_cut_is_exact():
    """8x8, destination (0,0), dead node (0,1), source (1,1): RF_CF cycles
    with period 12 once sst >= 3, two generations per cycle restarting the
    switch counter; sst 1 and 2 switch and deliver. For every ttl residue
    modulo the period, the traced route (its trace and annihilation points
    filled by copying the period) and the untraced one (counters only)
    must equal the reference interpreter, which steps every hop."""
    topo = build_torus(8, 8)
    scen = from_failures(topo, nodes=[(0, 1)])
    net = to_ref_net(scen)
    src, dst = (1, 1), (0, 0)
    for sst in (1, 2, 3):
        for ttl in range(256, 268):
            cfg = EngineConfig(sst=sst, ttl=ttl)
            want = ref.run(net, "RF_CF", src, dst, sst, ttl)
            full = route_packet(scen, Method.RF_CF, src, dst, cfg)
            assert_outcome_matches(full, want, (sst, ttl))
            bare = route_packet(scen, Method.RF_CF, src, dst, cfg, record_trace=False)
            assert (bare.verdict.value, bare.total_hops, bare.reverse_hops) == (
                want["verdict"], want["hops"], want["reverse_hops"]
            ), (sst, ttl)
            if sst < 3:
                assert full.verdict is Verdict.DELIVERED
                continue
            assert full.verdict is Verdict.DROPPED_TTL
            assert full.total_hops == ttl
            hops = hop_tuples(full)
            assert all(hops[i] == hops[i + 12] for i in range(ttl - 12))
            assert all(hops[:k] != hops[k:2 * k] for k in range(1, 12))
    # one recorded period gives the counters in closed form for any ttl;
    # stepping a million hops instead would take seconds
    period = hop_tuples(route_packet(scen, Method.RF_CF, src, dst, EngineConfig(3, 12)))
    rev_per_period = sum(kind is HopKind.REVERSE for _, _, _, kind in period)
    ttl = 10**6
    q, rest = divmod(ttl, 12)
    bare = route_packet(scen, Method.RF_CF, src, dst, EngineConfig(3, ttl), False)
    assert bare.verdict is Verdict.DROPPED_TTL
    assert bare.total_hops == ttl
    assert bare.reverse_hops == q * rev_per_period + sum(
        kind is HopKind.REVERSE for _, _, _, kind in period[:rest]
    )


def test_single_failure_reachability():
    """Destination index 0 (translation symmetry covers the rest), every
    other source: no single dead link costs RF a connected pair, no single
    dead node costs RF_LF one, and RF_CF loses exactly the pinned pairs
    under one dead node, every one a ttl loop."""
    rf_cf_node_losses = {
        (5, 5): 8, (6, 6): 10, (7, 9): 24, (8, 8): 21, (16, 16): 105,
    }
    for (rows, cols), cf_lost in rf_cf_node_losses.items():
        topo = build_torus(rows, cols)
        cfg = default_engine_config(topo)
        n = topo.num_nodes
        scenarios = [(from_failures(topo, links=[lk]), None) for lk in all_links(topo)]
        scenarios += [
            (from_failures(topo, nodes=[topo.node_at(v)]), v) for v in range(1, n)
        ]
        # every scenario of the shape in one stacked call, scenario b in row b
        rep, srcs, kinds = (np.array(x) for x in zip(*(
            (b, src, "link" if dead is None else "node")
            for b, (_, dead) in enumerate(scenarios)
            for src in range(1, n) if src != dead)))
        methods = (Method.RF_CF, Method.RF_LF)
        codes = _route_stack(
            port_stack([scen for scen, _ in scenarios]), rep, srcs, np.zeros_like(srcs),
            rows, cols, methods, cfg.sst, cfg.ttl,
        )[0]
        lost = Counter(
            (kinds[k], methods[mi], _VERDICTS[codes[mi, k]])
            for mi, k in zip(*np.nonzero(codes))
        )
        want = {("node", Method.RF_CF, Verdict.DROPPED_TTL): cf_lost}
        assert lost == want, (rows, cols)


def test_pair_failure_certificate():
    """Destination index 0, every pair of dead links, every other source:
    the guarantee of the single-failure test does not hold under two
    failures, and the losses per shape, method and cause are pinned
    exactly. Two dead links never disconnect these tori, so every loss is
    a connected pair. Each lost route is re-run through the reference
    interpreter and must match it in verdict, hops and reverse hops."""
    want = {
        (6, 6): {
            (Method.RF_CF, Verdict.DROPPED_NO_EGRESS): 60,
            (Method.RF_CF, Verdict.DROPPED_TTL): 204,
            (Method.RF_LF, Verdict.DROPPED_NO_EGRESS): 82,
            (Method.RF_LF, Verdict.DROPPED_TTL): 80,
        },
        (8, 8): {
            (Method.RF_CF, Verdict.DROPPED_NO_EGRESS): 112,
            (Method.RF_CF, Verdict.DROPPED_TTL): 710,
            (Method.RF_LF, Verdict.DROPPED_NO_EGRESS): 181,
            (Method.RF_LF, Verdict.DROPPED_TTL): 220,
        },
    }
    methods = (Method.RF_CF, Method.RF_LF)
    counters = ("verdict", "hops", "reverse_hops")
    for (rows, cols), counts in want.items():
        topo = build_torus(rows, cols)
        cfg = default_engine_config(topo)
        scenarios = [from_failures(topo, links=dead)
                     for dead in itertools.combinations(all_links(topo), 2)]
        # every scenario of the shape in one stacked call, scenario b in row b
        sources = np.arange(1, topo.num_nodes)
        rep = np.repeat(np.arange(len(scenarios)), sources.size)
        srcs = np.tile(sources, len(scenarios))
        codes, hops, revs = _route_stack(
            port_stack(scenarios), rep, srcs, np.zeros_like(srcs), rows, cols,
            methods, cfg.sst, cfg.ttl,
        )
        lost = Counter()
        mismatches = []
        nets = {}  # reference networks of the scenarios that lose a route
        for mi, k in zip(*np.nonzero(codes)):
            method, verdict, scen = methods[mi], _VERDICTS[codes[mi, k]], scenarios[rep[k]]
            lost[method, verdict] += 1
            if rep[k] not in nets:
                nets[rep[k]] = to_ref_net(scen)
            src = topo.node_at(srcs[k])
            want_route = ref.run(nets[rep[k]], method.value, src, (0, 0), cfg.sst, cfg.ttl)
            got = (verdict.value, hops[mi, k], revs[mi, k])
            if got != tuple(want_route[key] for key in counters):
                mismatches.append((sorted(scen.failed_links), method, src))
        assert not mismatches, (rows, cols, mismatches[:5])
        assert lost == counts, (rows, cols)
