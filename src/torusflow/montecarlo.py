"""Paired Monte Carlo sweeps over failure probabilities.

One replicate is one failure scenario plus one batch of (src, dst) pairs;
every method routes exactly the same packets over exactly the same scenario,
so per-replicate differences between methods are paired. Replicates are
keyed by (p_index, replicate_index) and seeded independently of execution
order, which makes sweeps reproducible and safe to parallelize.

Replicates of one p are routed a block at a time. Each replicate draws its
scenario and pairs from two generators seeded from its own cell key, and
the block turns all of those draws into stacked port masks and node
indices in one pass (_block_inputs). It labels the components of every
scenario in one pass over the stack, walks every packet's table path in
lockstep with numpy, routes on the packets stopped at a dead table port
with one scalar continuation loop per method, and tallies every
replicate with bincounts over the replicate index. A block stacks at most
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
    _continue,
    _route_nf_stack,
    default_engine_config,
)
from .potential import _base_tables, _relative_index
from .topology import (
    FailureMode,
    FailureScenario,
    _draw_bytes,
    _largest_component_fractions,
    _neighbor_table,
    _stack_labels,
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


def _block_inputs(config: ExperimentConfig, p: float, p_index: int, replicate_indices):
    """Scenarios and pairs of the given replicates of one p. Each replicate
    seeds two generators from its cell key. The scenario generator makes
    the failure draw (topology._draw_bytes). The traffic generator draws
    uniform src and dst batches over the alive nodes, both batches first,
    then redraws each src == dst collision in packet order until the
    endpoints differ; it draws nothing when fewer than two nodes are alive,
    and that replicate gets no pairs. Returns the (B, n) port mask and node
    byte arrays, each packet's position in the block and its src and dst
    node indices, in replicate then pair order, and the scenario seeds."""
    topo = build_torus(config.rows, config.cols)
    n, packets = topo.num_nodes, config.packets_per_replicate
    seeds = [seed_for(config.master_seed, p_index, ri) for ri in replicate_indices]
    scenario_seeds = [_mix64(seed ^ _SCENARIO_SALT) for seed in seeds]
    ports, alive = _draw_bytes(topo, config.mode, p, scenario_seeds)
    sizes = alive.sum(axis=1).tolist()
    first = np.cumsum([0, *sizes])  # each replicate's start in `nodes`
    nodes = np.flatnonzero(alive)  # stack index of every alive node
    rngs = {
        b: np.random.default_rng(_mix64(seed ^ _TRAFFIC_SALT))
        for b, (seed, size) in enumerate(zip(seeds, sizes)) if size >= 2
    }
    # per replicate with pairs, its src batch, then its dst batch, drawn in
    # one call, which yields the same numbers as one call per batch
    draws = np.array(
        [rng.integers(0, sizes[b], size=2 * packets) for b, rng in rngs.items()],
        dtype=np.intp,
    ).reshape(-1, 2, packets)
    rep = np.repeat(np.fromiter(rngs, np.intp, len(rngs)), packets)
    srcs = nodes[first[rep] + draws[:, 0].ravel()]
    dsts = nodes[first[rep] + draws[:, 1].ravel()]
    for k in np.flatnonzero(srcs == dsts).tolist():
        b = int(rep[k])
        while dsts[k] == srcs[k]:
            dsts[k] = nodes[first[b] + rngs[b].integers(0, sizes[b])]
    return ports, alive, rep, srcs - rep * n, dsts - rep * n, scenario_seeds


def replicate_inputs(
    config: ExperimentConfig, p: float, p_index: int, replicate_index: int
):
    """The exact scenario and (src, dst) pairs a replicate routes, for trace
    dumps and for re-deriving tallies with independent code."""
    ports, alive, _, srcs, dsts, seeds = _block_inputs(
        config, p, p_index, [replicate_index]
    )
    topo = build_torus(config.rows, config.cols)
    scenario = FailureScenario(
        topo, config.mode, p, seeds[0], ports.tobytes(), alive.tobytes()
    )
    node_at = topo.node_at
    return scenario, [
        (node_at(s), node_at(t)) for s, t in zip(srcs.tolist(), dsts.tolist())
    ]


def _route_block(config: ExperimentConfig, p: float, p_index: int, replicate_indices):
    """Results of the given replicates of one p, routed together as the
    module docstring describes."""
    rows, cols = config.rows, config.cols
    n = rows * cols
    count = len(replicate_indices)
    ports, alive, rep, srcs, dsts, _ = _block_inputs(config, p, p_index, replicate_indices)
    labels = _stack_labels(rows, cols, ports.ravel(), alive.ravel())
    cc_fraction = _largest_component_fractions(labels, n)

    # one entry per packet of the block, in replicate then pair order
    base = rep * n
    split = labels[base + srcs] != labels[base + dsts]
    unreachable = np.bincount(rep[split], minlength=count).tolist()

    engine = config.resolved_engine()
    rel = _relative_index(rows, cols, srcs, dsts)
    code, at, rel, hops = _route_nf_stack(
        ports.ravel(), base, srcs, rel, rows, cols, engine.ttl
    )
    # row mi holds method mi's verdict codes, hops and reverse hops; every
    # method shares the table-path prefix, and only packets stopped at a
    # dead table port route on, one continuation loop per method
    methods = config.methods
    codes = np.tile(code, (len(methods), 1))
    hop_counts = np.tile(hops.astype(np.int64), (len(methods), 1))
    rev = np.zeros_like(hop_counts)
    stopped = np.flatnonzero(code == 1)
    if stopped.size:
        masks = [row.tobytes() for row in ports]
        stops = [
            (masks[r], a, rl, h)
            for r, a, rl, h in zip(*(x[stopped].tolist() for x in (rep, at, rel, hops)))
        ]
        nbr = _neighbor_table(rows, cols)
        tables = _base_tables(rows, cols)
        for mi, method in enumerate(methods):
            if method is not Method.NF:
                codes[mi, stopped], hop_counts[mi, stopped], rev[mi, stopped] = _continue(
                    method, stops, nbr, tables, engine.sst, engine.ttl, None
                )[:3]

    tallies = _cell_tallies(count, rep, codes, hop_counts, rev)
    packets = config.packets_per_replicate
    results = []
    paired = np.bincount(rep, minlength=count).tolist()
    for b, ri in enumerate(replicate_indices):
        if paired[b]:
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
