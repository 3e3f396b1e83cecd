"""Seeding, replicate execution and sweep orchestration."""

import numpy as np
import pytest

import reference_engine as ref
from torusflow.analysis import aggregate_sweep
from torusflow.forwarding import EngineConfig, Method
from torusflow.montecarlo import (
    _BLOCK_NODES,
    _SCENARIO_SALT,
    _TRAFFIC_SALT,
    ExperimentConfig,
    MethodTally,
    _block_inputs,
    _mix64,
    _route_block,
    replicate_inputs,
    run_sweep,
    seed_for,
)
from torusflow.topology import (
    FailureMode,
    apply_bond_failures,
    apply_site_failures,
    build_torus,
    is_connected_pair,
    neighbor,
)

ALL_METHODS = (Method.NF, Method.LFA, Method.RF_CF, Method.RF_LF)


def small_config(**overrides):
    base = dict(
        rows=4,
        cols=4,
        mode=FailureMode.BOND,
        methods=ALL_METHODS,
        p_values=(0.1,),
        replicates=3,
        packets_per_replicate=20,
        master_seed=31,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# seeding

def test_seed_for_is_deterministic_and_collision_free():
    assert seed_for(0, 0, 0) == seed_for(0, 0, 0)
    seen = {
        seed_for(7, p_index, rep)
        for p_index in range(100)
        for rep in range(1000)
    }
    assert len(seen) == 100 * 1000


def test_seed_for_separates_master_seeds():
    a = {seed_for(0, i, j) for i in range(10) for j in range(100)}
    b = {seed_for(1, i, j) for i in range(10) for j in range(100)}
    assert not a & b


def test_seed_for_rejects_negative_indices():
    with pytest.raises(ValueError):
        seed_for(0, -1, 0)
    with pytest.raises(ValueError):
        seed_for(0, 0, -1)


def test_seed_for_rejects_indices_past_32_bits():
    """Cell keys pack both indices into 64 bits, so an index of 2**32
    would alias index 0."""
    last = 2**32 - 1
    assert len({seed_for(0, i, j) for i in (0, last) for j in (0, last)}) == 4
    for p_index, replicate_index in ((2**32, 0), (0, 2**32), (2**40, 2**40)):
        with pytest.raises(ValueError):
            seed_for(0, p_index, replicate_index)


def test_seed_for_rejects_master_seeds_outside_64_bits():
    """The master seed is mixed as a 64-bit integer, so -1 and 2**64 would
    alias master seeds 2**64 - 1 and 0."""
    assert seed_for(2**64 - 1, 0, 0) != seed_for(0, 0, 0)
    for master_seed in (-1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError, match="master seed"):
            seed_for(master_seed, 3, 4)


def test_seed_for_takes_only_integers():
    """NumPy integers seed as the ints they equal; a bool, a float or a
    string would otherwise run another seed or fail with TypeError."""
    assert seed_for(np.uint64(3), np.int32(1), np.int64(2)) == seed_for(3, 1, 2)
    for args in ((True, 0, 0), (1.5, 0, 0), ("3", 0, 0), (0, 1.0, 0), (0, 0, False)):
        with pytest.raises(ValueError, match="must be an integer"):
            seed_for(*args)


# ---------------------------------------------------------------------------
# config validation

def test_experiment_config_validation():
    with pytest.raises(ValueError):
        small_config(p_values=())
    with pytest.raises(ValueError):
        small_config(p_values=(0.1, 1.7))
    with pytest.raises(ValueError):
        small_config(replicates=0)
    with pytest.raises(ValueError):
        small_config(packets_per_replicate=0)
    with pytest.raises(ValueError):
        small_config(methods=())
    with pytest.raises(ValueError):
        small_config(methods=(Method.NF, Method.NF))
    with pytest.raises(ValueError):
        small_config(rows=2)
    for master_seed in (-1, 2**64):
        with pytest.raises(ValueError, match="master seed"):
            small_config(master_seed=master_seed)


@pytest.mark.parametrize("field, value", [
    ("master_seed", True), ("master_seed", 1.5), ("master_seed", "3"),
    ("replicates", True), ("replicates", 2.5), ("packets_per_replicate", 3.0),
    ("rows", 5.0), ("cols", np.float64(4.0)),
])
def test_experiment_config_rejects_non_integers(field, value):
    """True would run as 1 and the floats fail inside run_sweep, so
    every integer field takes an int or a NumPy integer, not a bool."""
    with pytest.raises(ValueError, match="must be an integer"):
        small_config(**{field: value})


def test_experiment_config_takes_numpy_integers():
    config = small_config(rows=np.int64(4), replicates=np.int32(3), master_seed=np.uint64(31))
    assert run_sweep(config) == run_sweep(small_config())
    # stored as ints, so the JSON aggregate can write the torus shape
    shape = small_config(rows=np.int64(4), cols=np.int32(5), packets_per_replicate=np.int16(9))
    assert {type(getattr(shape, f)) for f in ("rows", "cols", "replicates",
                                               "packets_per_replicate")} == {int}


def test_experiment_config_takes_member_values():
    """A mode or method named by its value runs as the member: the same
    draws, the same packets and the same aggregate rows."""
    by_value = small_config(mode="bond", p_values=(0.1, 0.3))
    by_member = small_config(p_values=(0.1, 0.3))
    assert by_value == by_member and by_value.mode is FailureMode.BOND
    assert (aggregate_sweep(run_sweep(by_value), by_value)
            == aggregate_sweep(run_sweep(by_member), by_member))
    rf_cf = small_config(methods=("RF_CF",), p_values=(0.1, 0.3))
    assert rf_cf == small_config(methods=(Method.RF_CF,), p_values=(0.1, 0.3))
    rows = aggregate_sweep(run_sweep(rf_cf), rf_cf)
    assert [(row.method, row.p) for row in rows] == [(Method.RF_CF, 0.1), (Method.RF_CF, 0.3)]


@pytest.mark.parametrize("field, value", [
    ("mode", "BOND"), ("mode", "ring"), ("mode", Method.NF),
    ("methods", ("NF", "warp")), ("methods", ("rf_cf",)), ("methods", (0,)),
    ("methods", (FailureMode.BOND,)), ("methods", ("NF", Method.NF)),
])
def test_experiment_config_rejects_unknown_modes_and_methods(field, value):
    with pytest.raises(ValueError):
        small_config(**{field: value})


def test_resolved_engine_defaults_and_override():
    cfg = small_config()
    assert cfg.resolved_engine() == EngineConfig(sst=8, ttl=64)
    custom = EngineConfig(sst=3, ttl=17)
    assert small_config(engine=custom).resolved_engine() == custom


# ---------------------------------------------------------------------------
# replicate semantics

def test_replicate_inputs_are_reproducible_alive_pairs():
    cfg = small_config(p_values=(0.2,), packets_per_replicate=30)
    scen_a, pairs_a = replicate_inputs(cfg, 0.2, 0, 1)
    scen_b, pairs_b = replicate_inputs(cfg, 0.2, 0, 1)
    assert scen_a.failed_links == scen_b.failed_links
    assert pairs_a == pairs_b
    assert len(pairs_a) == 30
    for src, dst in pairs_a:
        assert src != dst
        assert src not in scen_a.failed_nodes
        assert dst not in scen_a.failed_nodes


def documented_pairs(node_bits: bytes, traffic_seed: int, packets: int):
    """The pair draw as documented, one replicate at a time: no draw when
    fewer than two nodes are alive, else both endpoint batches drawn first
    with the replicate's traffic generator, then every collision redrawn in
    packet order. Also returns the number of redraws."""
    alive = np.flatnonzero(np.frombuffer(node_bits, dtype=np.uint8)).tolist()
    if len(alive) < 2:
        return [], [], 0
    rng = np.random.default_rng(traffic_seed)
    srcs = [alive[i] for i in rng.integers(0, len(alive), size=packets)]
    dsts = [alive[i] for i in rng.integers(0, len(alive), size=packets)]
    redraws = 0
    for k in range(packets):
        while dsts[k] == srcs[k]:
            dsts[k] = alive[rng.integers(0, len(alive))]
            redraws += 1
    return srcs, dsts, redraws


@pytest.mark.parametrize(
    "overrides",
    [
        dict(rows=16, cols=16, p_values=(0.05,)),
        dict(rows=12, cols=10, mode=FailureMode.SITE, p_values=(0.15,)),
        dict(rows=3, cols=3, mode=FailureMode.SITE, p_values=(0.5, 0.9, 1.0)),
    ],
    ids=["bond", "site", "site-3x3"],
)
def test_block_inputs_match_per_replicate_draw(overrides):
    """_block_inputs draws a block's scenarios and pairs together, in blocks
    of 1, of 7 or all; each replicate must get the bytes of its own failure
    draw and the pairs of the documented per-replicate sampler. On 3x3
    site, fewer than two nodes survive in some replicates and collisions
    are redrawn in others."""
    cfg = small_config(replicates=20, **overrides)
    topo = build_torus(cfg.rows, cfg.cols)
    draw = apply_bond_failures if cfg.mode is FailureMode.BOND else apply_site_failures
    unpaired = redraws = 0
    for p_index, p in enumerate(cfg.p_values):
        for size in (1, 7, cfg.replicates):
            for start in range(0, cfg.replicates, size):
                block = range(start, min(start + size, cfg.replicates))
                ports, alive, rep, srcs, dsts, seeds = _block_inputs(cfg, p, p_index, block)
                for b, ri in enumerate(block):
                    seed = seed_for(cfg.master_seed, p_index, ri)
                    want = draw(topo, p, _mix64(seed ^ _SCENARIO_SALT))
                    assert seeds[b] == want.seed
                    assert ports[b].tobytes() == want._port_mask, (p, ri)
                    assert alive[b].tobytes() == want._node_bits, (p, ri)
                    want_srcs, want_dsts, redrawn = documented_pairs(
                        want._node_bits, _mix64(seed ^ _TRAFFIC_SALT),
                        cfg.packets_per_replicate,
                    )
                    mine = rep == b
                    assert srcs[mine].tolist() == want_srcs, (p, ri, size)
                    assert dsts[mine].tolist() == want_dsts, (p, ri, size)
                    if size == 1:
                        unpaired += not want_srcs
                        redraws += redrawn
    if cfg.rows == 3:
        assert unpaired and redraws


def test_fault_free_replicate_counts():
    cfg = small_config(p_values=(0.0,), packets_per_replicate=40)
    res = _route_block(cfg, 0.0, 0, [0])[0]
    _, pairs = replicate_inputs(cfg, 0.0, 0, 0)
    dists = [ref.hop_distance(4, 4, s, t) for s, t in pairs]
    assert res.largest_cc_fraction == 1.0
    assert res.structurally_unreachable_pairs == 0
    for method in ALL_METHODS:
        tally = res.tallies[method]
        assert tally.delivered == 40
        assert tally.lost == 0
        assert tally.delivered_with_reverse == 0
        assert tally.reverse_hops_delivered == 0
        assert tally.total_hops_delivered == sum(dists)
        assert tally.max_hops_delivered == max(dists)


def test_all_links_dead_replicate():
    cfg = small_config(p_values=(1.0,), packets_per_replicate=25)
    res = _route_block(cfg, 1.0, 0, [0])[0]
    assert res.largest_cc_fraction == 1 / 16
    assert res.structurally_unreachable_pairs == 25
    for method in ALL_METHODS:
        tally = res.tallies[method]
        assert tally.delivered == 0
        assert tally.dropped_no_egress == 25
        assert tally.max_hops_delivered is None


def test_all_nodes_dead_replicate_degenerate_guard():
    cfg = small_config(mode=FailureMode.SITE, p_values=(1.0,), packets_per_replicate=15)
    res = _route_block(cfg, 1.0, 0, [0])[0]
    assert res.largest_cc_fraction == 0.0
    assert res.structurally_unreachable_pairs == 15
    for method in ALL_METHODS:
        tally = res.tallies[method]
        assert tally == MethodTally(dropped_unreachable_dest=15)
    _, pairs = replicate_inputs(cfg, 1.0, 0, 0)
    assert pairs == []


def test_method_subset_sees_identical_traffic():
    """The scenario and packet draws depend only on the seeds, so thinning
    the method list must not move the shared NF tally."""
    full = small_config(p_values=(0.25,))
    thin = small_config(p_values=(0.25,), methods=(Method.NF,))
    a = _route_block(full, 0.25, 0, [2])[0]
    b = _route_block(thin, 0.25, 0, [2])[0]
    assert a.tallies[Method.NF] == b.tallies[Method.NF]
    assert set(b.tallies) == {Method.NF}


def test_replicate_tallies_match_reference_interpreter():
    """Re-derive every tally field by routing the replicate's own traffic
    through the straight-line interpreter."""
    cfg = small_config(p_values=(0.1, 0.3), replicates=3, packets_per_replicate=50)
    topo = build_torus(4, 4)
    engine = cfg.resolved_engine()
    for p_index, p in enumerate(cfg.p_values):
        for rep in range(cfg.replicates):
            scen, pairs = replicate_inputs(cfg, p, p_index, rep)
            net = ref.Net(
                4, 4,
                [(v, neighbor(topo, v, d)) for v, d in scen.failed_links],
                scen.failed_nodes,
            )
            res = _route_block(cfg, p, p_index, [rep])[0]
            unreachable = sum(
                1 for s, t in pairs if not is_connected_pair(scen, s, t)
            )
            assert res.structurally_unreachable_pairs == unreachable
            for method in ALL_METHODS:
                delivered = no_egress = ttl_drop = 0
                with_rev = hops_total = rev_total = 0
                hops_max = None
                for src, dst in pairs:
                    out = ref.run(net, method.value, src, dst, engine.sst, engine.ttl)
                    if out["verdict"] == "delivered":
                        delivered += 1
                        hops_total += out["hops"]
                        rev_total += out["reverse_hops"]
                        if out["reverse_hops"]:
                            with_rev += 1
                        if hops_max is None or out["hops"] > hops_max:
                            hops_max = out["hops"]
                    elif out["verdict"] == "dropped_no_egress":
                        no_egress += 1
                    else:
                        ttl_drop += 1
                assert res.tallies[method] == MethodTally(
                    delivered=delivered,
                    dropped_no_egress=no_egress,
                    dropped_ttl=ttl_drop,
                    dropped_unreachable_dest=0,
                    delivered_with_reverse=with_rev,
                    total_hops_delivered=hops_total,
                    reverse_hops_delivered=rev_total,
                    max_hops_delivered=hops_max,
                ), (method, p, rep)


def test_structural_unreachability_bounds_losses():
    cfg = small_config(rows=6, cols=6, p_values=(0.3,), replicates=10)
    for rep in range(cfg.replicates):
        res = _route_block(cfg, 0.3, 0, [rep])[0]
        for method in ALL_METHODS:
            assert res.tallies[method].lost >= res.structurally_unreachable_pairs


def test_rf_methods_dominate_nf_per_replicate():
    cfg = small_config(rows=8, cols=8, p_values=(0.05, 0.15), replicates=8)
    for p_index, p in enumerate(cfg.p_values):
        for rep in range(cfg.replicates):
            res = _route_block(cfg, p, p_index, [rep])[0]
            nf = res.tallies[Method.NF].delivered
            for method in (Method.LFA, Method.RF_CF, Method.RF_LF):
                assert res.tallies[method].delivered >= nf


# ---------------------------------------------------------------------------
# sweeps

def test_run_sweep_shape_and_order():
    cfg = small_config(p_values=(0.3, 0.05), replicates=4)
    results = run_sweep(cfg)
    assert len(results) == 2 * 4
    assert [(r.p_index, r.replicate_index) for r in results] == [
        (i, j) for i in range(2) for j in range(4)
    ]
    assert all(r.p == cfg.p_values[r.p_index] for r in results)
    assert all(r.n_packets == cfg.packets_per_replicate for r in results)


def test_run_sweep_is_reproducible():
    cfg = small_config(p_values=(0.05, 0.2), replicates=5)
    assert run_sweep(cfg) == run_sweep(cfg)


def test_run_sweep_worker_count_is_invisible():
    cfg = small_config(p_values=(0.05, 0.25), replicates=8)
    assert run_sweep(cfg, workers=1) == run_sweep(cfg, workers=2)


def test_worker_pool_is_capped_by_cores_and_blocks(monkeypatch):
    """A forked pool starts every worker it is asked for at once, so
    run_sweep asks for no more than there are cores and blocks. An
    in-process stand-in for the pool records the cap and maps in this
    process; no process is started."""
    import concurrent.futures

    caps = []

    class InProcessPool:
        def __init__(self, max_workers):
            caps.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr("os.cpu_count", lambda: 6)
    # 2 p x 10 replicates: blocks of 10 // (4 * 6) -> 1 replicate, 20 blocks
    many = small_config(p_values=(0.05, 0.25), replicates=10)
    # 1 p x 2 replicates: 2 blocks of one replicate
    few = small_config(p_values=(0.1,), replicates=2)
    for cfg, cap in ((many, 6), (few, 2)):
        assert run_sweep(cfg, workers=10_000) == run_sweep(cfg, workers=1)
        assert caps == [cap], cfg
        caps.clear()


def test_run_replicate_matches_sweep_entries():
    cfg = small_config(p_values=(0.15,), replicates=3)
    results = run_sweep(cfg)
    for rep in range(3):
        assert results[rep] == _route_block(cfg, 0.15, 0, [rep])[0]


@pytest.mark.parametrize(
    "overrides",
    [
        dict(rows=16, cols=16, p_values=(0.05,)),
        dict(rows=12, cols=10, mode=FailureMode.SITE, p_values=(0.15,)),
        dict(rows=5, cols=7, mode=FailureMode.SITE, p_values=(0.9,)),
        dict(rows=16, cols=16, p_values=(0.1,), engine=EngineConfig(sst=1, ttl=5)),
        dict(rows=64, cols=64, mode=FailureMode.SITE, p_values=(0.01,)),
    ],
    ids=["bond", "site", "site-few-alive", "ttl-below-diameter", "over-node-budget"],
)
def test_results_do_not_depend_on_block_boundaries(overrides):
    """Routing one p's replicates in blocks of 1, of 7 or all together gives
    each replicate the result it has routed alone, also when a block mixes
    replicates with fewer than two alive nodes into routed ones, and when
    the ttl stops the shared table-path walk. A block of all 40 holds more
    than 255 tally cells, and on 64x64 more nodes than one routed block
    stacks, so there run_sweep cuts the cell by its node budget, and must
    still give the same results at one and at two workers."""
    cfg = small_config(replicates=40, **overrides)
    p = cfg.p_values[0]
    alone = [_route_block(cfg, p, 0, [rep])[0] for rep in range(cfg.replicates)]
    for size in (1, 7, cfg.replicates):
        blocks = [
            _route_block(cfg, p, 0, range(start, min(start + size, cfg.replicates)))
            for start in range(0, cfg.replicates, size)
        ]
        assert [r for block in blocks for r in block] == alone, size
    unrouted = [
        r.structurally_unreachable_pairs == cfg.packets_per_replicate
        and r.tallies[Method.NF]
        == MethodTally(dropped_unreachable_dest=cfg.packets_per_replicate)
        for r in alone
    ]
    if cfg.rows == 5:
        assert any(unrouted) and not all(unrouted)
    if cfg.engine is not None:
        assert sum(r.tallies[Method.NF].dropped_ttl for r in alone) > 0
    if cfg.rows == 64:
        assert cfg.replicates * cfg.rows * cfg.cols > _BLOCK_NODES
        for workers in (1, 2):
            assert run_sweep(cfg, workers=workers) == alone, workers


def test_replicate_tallies_match_reference_at_edge_engine_configs():
    """The sweep routes every method from one shared table-path walk and
    cuts loops early; its tallies must still equal the reference's when
    the ttl is below the diameter, equals the switch threshold, or lets
    loops switch policy, and for a method subset without NF."""
    shapes = ((16, 16, FailureMode.BOND, 0.15), (7, 9, FailureMode.SITE, 0.2))
    subsets = (ALL_METHODS, (Method.RF_LF, Method.LFA, Method.RF_CF))
    for rows, cols, mode, p in shapes:
        topo = build_torus(rows, cols)
        for sst, ttl in ((1, 5), (3, 3), (1, 40)):
            for methods in subsets:
                cfg = small_config(
                    rows=rows, cols=cols, mode=mode, methods=methods, p_values=(p,),
                    replicates=2, packets_per_replicate=40,
                    engine=EngineConfig(sst=sst, ttl=ttl),
                )
                for rep in range(cfg.replicates):
                    scen, pairs = replicate_inputs(cfg, p, 0, rep)
                    net = ref.Net(
                        rows, cols,
                        [(v, neighbor(topo, v, d)) for v, d in scen.failed_links],
                        scen.failed_nodes,
                    )
                    res = _route_block(cfg, p, 0, [rep])[0]
                    for method in methods:
                        outs = [
                            ref.run(net, method.value, s, t, sst, ttl) for s, t in pairs
                        ]
                        delivered = [o for o in outs if o["verdict"] == "delivered"]
                        verdicts = [o["verdict"] for o in outs]
                        assert res.tallies[method] == MethodTally(
                            delivered=len(delivered),
                            dropped_no_egress=verdicts.count("dropped_no_egress"),
                            dropped_ttl=verdicts.count("dropped_ttl"),
                            dropped_unreachable_dest=0,
                            delivered_with_reverse=sum(
                                1 for o in delivered if o["reverse_hops"]
                            ),
                            total_hops_delivered=sum(o["hops"] for o in delivered),
                            reverse_hops_delivered=sum(
                                o["reverse_hops"] for o in delivered
                            ),
                            max_hops_delivered=max(
                                (o["hops"] for o in delivered), default=None
                            ),
                        ), (rows, cols, sst, ttl, method, rep)
