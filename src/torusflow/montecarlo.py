"""Paired Monte Carlo sweeps over failure probabilities.

One replicate is one failure scenario plus one batch of (src, dst) pairs;
every method routes exactly the same packets over exactly the same scenario,
so per-replicate differences between methods are paired. Replicates are
keyed by (p_index, replicate_index) and seeded independently of execution
order, which makes sweeps reproducible and safe to parallelize.

Replicates of one p are routed a block at a time. Each replicate draws its
scenario and pairs from its own seeds; the block stacks their port masks,
labels the components of every scenario in one pass over the stack, walks
every packet's table path in lockstep with numpy, routes on one at a time
only the packets stopped at a dead table port, and tallies every replicate
with bincounts over the replicate index. A block stacks at most
_BLOCK_NODES nodes, so memory stays bounded on large tori, and no result
depends on where blocks split.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .forwarding import (
    EngineConfig,
    Method,
    _route_nf_stack,
    _route_on,
    default_engine_config,
)
from .potential import _base_tables, _relative_index
from .topology import (
    FailureMode,
    FailureScenario,
    _largest_component_fractions,
    _neighbor_table,
    _stack_labels,
    apply_bond_failures,
    apply_site_failures,
    build_torus,
)

_MASK64 = (1 << 64) - 1
_SCENARIO_SALT = 0x9E3779B97F4A7C15
_TRAFFIC_SALT = 0xC2B2AE3D27D4EB4F
_BLOCK_NODES = 1 << 14  # most scenario nodes stacked into one routed block


def _mix64(x: int) -> int:
    """splitmix64 finalizer; a bijection on 64-bit integers."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def seed_for(master_seed: int, p_index: int, replicate_index: int) -> int:
    """Deterministic per-replicate seed, distinct across (p_index,
    replicate_index) cells for any fixed master seed (indices < 2**32)."""
    if p_index < 0 or replicate_index < 0:
        raise ValueError("indices must be non-negative")
    cell = ((p_index & 0xFFFFFFFF) << 32) | (replicate_index & 0xFFFFFFFF)
    return _mix64(_mix64(master_seed) ^ cell)


@dataclass(frozen=True)
class ExperimentConfig:
    rows: int = 16
    cols: int = 16
    mode: FailureMode = FailureMode.BOND
    methods: tuple[Method, ...] = (Method.NF, Method.LFA, Method.RF_CF, Method.RF_LF)
    p_values: tuple[float, ...] = ()
    replicates: int = 1000
    packets_per_replicate: int = 100
    engine: EngineConfig | None = None  # None picks the per-topology default
    master_seed: int = 0

    def __post_init__(self):
        build_torus(self.rows, self.cols)
        if not self.p_values:
            raise ValueError("p_values must not be empty")
        for p in self.p_values:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"failure probability {p} outside [0, 1]")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.packets_per_replicate < 1:
            raise ValueError("packets_per_replicate must be >= 1")
        if not self.methods:
            raise ValueError("methods must not be empty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate methods")

    def resolved_engine(self) -> EngineConfig:
        if self.engine is not None:
            return self.engine
        return default_engine_config(build_torus(self.rows, self.cols))


@dataclass(frozen=True)
class MethodTally:
    """Per-method packet counts for one replicate."""

    delivered: int = 0
    dropped_no_egress: int = 0
    dropped_ttl: int = 0
    dropped_unreachable_dest: int = 0
    delivered_with_reverse: int = 0
    total_hops_delivered: int = 0
    reverse_hops_delivered: int = 0
    max_hops_delivered: int | None = None

    @property
    def lost(self) -> int:
        return self.dropped_no_egress + self.dropped_ttl + self.dropped_unreachable_dest


@dataclass(frozen=True)
class ReplicateResult:
    p: float
    p_index: int
    replicate_index: int
    n_packets: int
    tallies: dict
    largest_cc_fraction: float
    structurally_unreachable_pairs: int


def _sample_pair_indices(scenario: FailureScenario, traffic_seed: int, packets: int):
    """Uniform src and dst node index arrays over alive nodes, src != dst,
    empty when fewer than two nodes are alive. Both endpoint batches are
    drawn first, then repeated collisions are redrawn in packet order; the
    generator sequence fixes the result."""
    alive = np.flatnonzero(np.frombuffer(scenario._node_bits, dtype=np.uint8))
    if alive.size < 2:
        return alive[:0], alive[:0]
    rng = np.random.default_rng(traffic_seed)
    srcs = alive[rng.integers(0, alive.size, size=packets)]
    dsts = alive[rng.integers(0, alive.size, size=packets)]
    for k in np.flatnonzero(srcs == dsts).tolist():
        while dsts[k] == srcs[k]:
            dsts[k] = alive[rng.integers(0, alive.size)]
    return srcs, dsts


def _replicate_setup(
    config: ExperimentConfig, p: float, p_index: int, replicate_index: int
):
    """Scenario and src and dst node index arrays of one replicate, each
    drawn from its own seed derived from the cell key. No pairs when fewer
    than two nodes are alive."""
    rep_seed = seed_for(config.master_seed, p_index, replicate_index)
    topo = build_torus(config.rows, config.cols)
    if config.mode is FailureMode.BOND:
        draw = apply_bond_failures
    else:
        draw = apply_site_failures
    scenario = draw(topo, p, _mix64(rep_seed ^ _SCENARIO_SALT))
    srcs, dsts = _sample_pair_indices(
        scenario, _mix64(rep_seed ^ _TRAFFIC_SALT), config.packets_per_replicate
    )
    return scenario, srcs, dsts


def replicate_inputs(
    config: ExperimentConfig, p: float, p_index: int, replicate_index: int
):
    """The exact scenario and (src, dst) pairs a replicate routes, for trace
    dumps and for re-deriving tallies with independent code."""
    scenario, srcs, dsts = _replicate_setup(config, p, p_index, replicate_index)
    node_at = scenario.topology.node_at
    return scenario, [
        (node_at(s), node_at(t)) for s, t in zip(srcs.tolist(), dsts.tolist())
    ]


def run_replicate(
    config: ExperimentConfig, p: float, p_index: int, replicate_index: int
) -> ReplicateResult:
    """One replicate's result, routed as a block of one."""
    return _route_block(config, p, p_index, [replicate_index])[0]


def _route_block(config: ExperimentConfig, p: float, p_index: int, replicate_indices):
    """Results of the given replicates of one p, routed together as the
    module docstring describes."""
    rows, cols = config.rows, config.cols
    n = rows * cols
    setups = [_replicate_setup(config, p, p_index, ri) for ri in replicate_indices]
    count = len(setups)
    ports = np.frombuffer(b"".join(s._port_mask for s, _, _ in setups), np.uint8)
    alive = np.frombuffer(b"".join(s._node_bits for s, _, _ in setups), np.uint8)
    labels = _stack_labels(rows, cols, ports, alive)
    cc_fraction = _largest_component_fractions(labels, n)

    # one entry per packet of the block, in replicate then pair order
    rep = np.repeat(np.arange(count), [srcs.size for _, srcs, _ in setups])
    srcs = np.concatenate([srcs for _, srcs, _ in setups])
    dsts = np.concatenate([dsts for _, _, dsts in setups])
    base = rep * n
    split = labels[base + srcs] != labels[base + dsts]
    unreachable = np.bincount(rep[split], minlength=count).tolist()

    engine = config.resolved_engine()
    rel = _relative_index(rows, cols, srcs, dsts)
    code, at, rel, hops = _route_nf_stack(
        ports, base, srcs, rel, rows, cols, engine.ttl
    )
    # row mi holds method mi's verdict codes, hops and reverse hops; every
    # method shares the table-path prefix, and only packets stopped at a
    # dead table port route on, one at a time
    methods = config.methods
    codes = np.tile(code, (len(methods), 1))
    hop_counts = np.tile(hops.astype(np.int64), (len(methods), 1))
    rev = np.zeros_like(hop_counts)
    stopped = np.flatnonzero(code == 1)
    masks = [scenario._port_mask for scenario, _, _ in setups]
    stops = [
        (masks[r], a, rl, h)
        for r, a, rl, h in zip(*(x[stopped].tolist() for x in (rep, at, rel, hops)))
    ]
    if stops:
        nbr = _neighbor_table(rows, cols)
        tables = _base_tables(rows, cols)
        for mi, method in enumerate(methods):
            if method is Method.NF:
                continue
            routes = [
                _route_on(method, mask, nbr, tables, a, rl, h, engine.sst, engine.ttl,
                          None)[:3]
                for mask, a, rl, h in stops
            ]
            codes[mi, stopped], hop_counts[mi, stopped], rev[mi, stopped] = zip(*routes)

    tallies = _cell_tallies(count, rep, codes, hop_counts, rev)
    packets = config.packets_per_replicate
    results = []
    for b, ri in enumerate(replicate_indices):
        if setups[b][1].size:
            by_method = {m: tallies[mi * count + b] for mi, m in enumerate(methods)}
        else:
            # not enough survivors to form a pair; every notional packet is
            # structurally undeliverable
            unreachable[b] = packets
            dead_tally = MethodTally(dropped_unreachable_dest=packets)
            by_method = {m: dead_tally for m in methods}
        results.append(ReplicateResult(
            p=p,
            p_index=p_index,
            replicate_index=ri,
            n_packets=packets,
            tallies=by_method,
            largest_cc_fraction=cc_fraction[b],
            structurally_unreachable_pairs=unreachable[b],
        ))
    return results


def _cell_tallies(count: int, rep, codes, hops, rev) -> list[MethodTally]:
    """One MethodTally per (method, replicate) cell of a block, at index
    mi * count + replicate, from (methods, packets) arrays of verdict
    codes, hops and reverse hops and the packets' replicate indices."""
    cells = codes.shape[0] * count
    key = np.arange(codes.shape[0])[:, None] * count + rep
    by_code = np.bincount(
        (codes.astype(np.intp) * cells + key).ravel(), minlength=3 * cells
    )
    ok = codes == 0
    key, hops, rev = key[ok], hops[ok], rev[ok]
    hop_sum = np.zeros(cells, dtype=np.int64)
    np.add.at(hop_sum, key, hops)
    rev_sum = np.zeros(cells, dtype=np.int64)
    np.add.at(rev_sum, key, rev)
    hop_max = np.full(cells, -1, dtype=np.int64)
    np.maximum.at(hop_max, key, hops)
    with_rev = np.bincount(key[rev > 0], minlength=cells)
    return [
        MethodTally(
            delivered=delivered,
            dropped_no_egress=no_egress,
            dropped_ttl=ttl_drop,
            dropped_unreachable_dest=0,
            delivered_with_reverse=with_reverse,
            total_hops_delivered=total,
            reverse_hops_delivered=reverse,
            max_hops_delivered=worst if worst >= 0 else None,
        )
        for delivered, no_egress, ttl_drop, with_reverse, total, reverse, worst in zip(
            *by_code.reshape(3, cells).tolist(),
            *(a.tolist() for a in (with_rev, hop_sum, rev_sum, hop_max)),
        )
    ]


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[ReplicateResult]:
    """All replicates for all p values, ordered by (p_index,
    replicate_index). The result is a pure function of the config; the
    worker count only changes wall time."""
    size = max(1, _BLOCK_NODES // (config.rows * config.cols))
    if workers > 1:
        # about four blocks per worker and p, so the workers stay busy
        size = min(size, max(1, config.replicates // (4 * workers)))
    blocks = [
        (p, p_index, range(start, min(start + size, config.replicates)))
        for p_index, p in enumerate(config.p_values)
        for start in range(0, config.replicates, size)
    ]
    args = (itertools.repeat(config), *zip(*blocks))
    if workers <= 1:
        chunks = map(_route_block, *args)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_route_block, *args))
    return [r for chunk in chunks for r in chunk]
