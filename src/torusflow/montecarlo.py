"""Paired Monte Carlo sweeps over failure probabilities.

One replicate is one failure scenario plus one batch of (src, dst) pairs;
every method routes exactly the same packets over exactly the same scenario,
so per-replicate differences between methods are paired. Replicates are
keyed by (p_index, replicate_index) and seeded independently of execution
order, which makes sweeps reproducible and safe to parallelize.

Replicates of one p are routed a block at a time. Each replicate has two
seeds derived from its own cell key, one for its failure draw and one for
its traffic draw, and the streams they seed are NumPy's default_rng
streams. The block seeds all of its streams in one pass, draws each kind
in one array pass (torusflow.streams), and turns the draws into stacked
node bytes and node indices (_block_inputs). It labels the components of every
scenario in one pass over the stack, routes every packet with every
method in one forwarding._route_stack call, traced for the trace dump,
and takes every replicate's result from one _cell_tallies call, which
counts and sums over (replicate, method) cells. A replicate with fewer than
two alive nodes routes no packets and is tallied like any other, its
packets all dropped as structurally unreachable. A block stacks at most
_BLOCK_NODES nodes, so memory stays bounded on large tori, and no result
depends on where blocks split. A sweep yields each p's results as one cell
as soon as its last block is routed (_sweep_cells), so a caller that
aggregates and drops each cell holds one p's results at a time; run_sweep
joins the cells. The master seed is an integer in [0, 2**64).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .forwarding import EngineConfig, Method, _route_stack, default_engine_config
from .topology import (
    _DEAD_NODE,
    FailureMode,
    FailureScenario,
    _check_p,
    _draw_bytes,
    _largest_component_fractions,
    _stack_labels,
    build_torus,
)
from .streams import Integers, _integer, seeded

_MASK64 = (1 << 64) - 1
_SCENARIO_SALT = 0x9E3779B97F4A7C15
_TRAFFIC_SALT = 0xC2B2AE3D27D4EB4F
_BLOCK_NODES = 1 << 14  # most scenario nodes stacked into one routed block


def _mix64(x: int) -> int:
    """splitmix64 finalizer; a bijection on 64-bit integers."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def seed_for(master_seed: int, p_index: int, replicate_index: int) -> int:
    """Deterministic per-replicate seed, distinct across (p_index,
    replicate_index) cells for any fixed master seed. Raises ValueError
    for a non-integer argument, a master seed outside [0, 2**64) or an
    index outside [0, 2**32), which would alias another seed or cell."""
    master_seed = _integer("master seed", master_seed)
    p_index = _integer("p_index", p_index)
    replicate_index = _integer("replicate_index", replicate_index)
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master seed {master_seed!r} outside [0, 2**64)")
    if not (0 <= p_index < 1 << 32 and 0 <= replicate_index < 1 << 32):
        raise ValueError("indices must lie in [0, 2**32)")
    cell = p_index << 32 | replicate_index
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
        # a mode or method may be given by its value; anything else raises
        object.__setattr__(self, "mode", FailureMode(self.mode))
        object.__setattr__(self, "methods", tuple(map(Method, self.methods)))
        for name in ("replicates", "packets_per_replicate"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        topo = build_torus(self.rows, self.cols)  # the shape as checked ints
        object.__setattr__(self, "rows", topo.rows)
        object.__setattr__(self, "cols", topo.cols)
        seed_for(self.master_seed, 0, 0)  # rejects a non-integer or out-of-range master seed
        object.__setattr__(self, "p_values", tuple(map(_check_p, self.p_values)))
        if not self.p_values:
            raise ValueError("p_values must not be empty")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.packets_per_replicate < 1:
            raise ValueError("packets_per_replicate must be >= 1")
        if not self.methods:
            raise ValueError("methods must not be empty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate methods")
        if self.engine is not None and not isinstance(self.engine, EngineConfig):
            raise ValueError(f"engine must be an EngineConfig or None, got {self.engine!r}")

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
    derives a scenario seed and a traffic seed from its cell key. The
    scenario seeds make the failure draw (topology._draw_bytes). Each
    traffic stream, as default_rng(traffic seed).integers would draw it,
    gives uniform src and dst batches over the alive nodes, both batches
    first, then redraws each src == dst collision in packet order until the
    endpoints differ; it draws nothing when fewer than two nodes are alive,
    and that replicate gets no pairs. One streams.seeded pass seeds every
    stream of the block, and every replicate's batches come from one
    streams.Integers array pass. Returns the (B, n) node byte array, each
    packet's position in the block and its src and dst node indices, in
    replicate then pair order, and the scenario seeds."""
    topo = build_torus(config.rows, config.cols)
    n, packets = topo.num_nodes, config.packets_per_replicate
    seeds = [seed_for(config.master_seed, p_index, ri) for ri in replicate_indices]
    scenario_seeds = [_mix64(seed ^ _SCENARIO_SALT) for seed in seeds]
    traffic_seeds = [_mix64(seed ^ _TRAFFIC_SALT) for seed in seeds]
    streams = seeded(scenario_seeds + traffic_seeds)  # scenario rows first
    count = len(seeds)
    ports = _draw_bytes(topo, config.mode, p, streams[:, :count])
    alive = ports != _DEAD_NODE
    sizes = alive.sum(axis=1).tolist()
    first = np.cumsum([0, *sizes])  # each replicate's start in `nodes`
    nodes = np.flatnonzero(alive)  # stack index of every alive node
    paired = [b for b, size in enumerate(sizes) if size >= 2]
    # per replicate with pairs, its src batch, then its dst batch, drawn as
    # one stream of 2 * packets, which yields the same numbers as one
    # integers() call per batch
    traffic = Integers(
        streams[:, [count + b for b in paired]], [sizes[b] for b in paired], 2 * packets
    )
    draws = traffic.first.reshape(-1, 2, packets)
    rep = np.repeat(np.array(paired, dtype=np.intp), packets)
    srcs = nodes[first[rep] + draws[:, 0].ravel()]
    dsts = nodes[first[rep] + draws[:, 1].ravel()]
    for k in np.flatnonzero(srcs == dsts).tolist():
        row = k // packets
        while dsts[k] == srcs[k]:
            dsts[k] = nodes[first[paired[row]] + traffic.draw(row)]
    return ports, rep, srcs - rep * n, dsts - rep * n, scenario_seeds


def replicate_inputs(
    config: ExperimentConfig, p: float, p_index: int, replicate_index: int
):
    """The exact scenario and (src, dst) pairs a replicate routes, for trace
    dumps and for re-deriving tallies with independent code."""
    ports, _, srcs, dsts, seeds = _block_inputs(config, p, p_index, [replicate_index])
    topo = build_torus(config.rows, config.cols)
    scenario = FailureScenario(topo, config.mode, p, seeds[0], ports[0])
    node_at = topo.node_at
    return scenario, [
        (node_at(s), node_at(t)) for s, t in zip(srcs.tolist(), dsts.tolist())
    ]


def _route_block(config: ExperimentConfig, p: float, p_index: int, replicate_indices,
                 record: bool = False):
    """Results of the given replicates of one p, routed together as the
    module docstring describes: draw, label, route, tally. With `record`
    also each packet's replicate and dst node indices and, per method,
    each packet's trace."""
    rows, cols = config.rows, config.cols
    n = rows * cols
    ports, rep, srcs, dsts, _ = _block_inputs(config, p, p_index, replicate_indices)
    labels = _stack_labels(rows, cols, ports.ravel())
    engine = config.resolved_engine()
    routed = _route_stack(
        ports, rep, srcs, dsts, rows, cols, config.methods, engine.sst, engine.ttl, record
    )
    split = labels[rep * n + srcs] != labels[rep * n + dsts]
    results = [
        ReplicateResult(
            p=p,
            p_index=p_index,
            replicate_index=ri,
            n_packets=config.packets_per_replicate,
            tallies=tallies,
            largest_cc_fraction=cc,
            structurally_unreachable_pairs=unreachable,
        )
        for ri, cc, (tallies, unreachable) in zip(
            replicate_indices,
            _largest_component_fractions(labels, n),
            _cell_tallies(config, len(replicate_indices), rep, split, *routed[:3]),
        )
    ]
    return (results, rep, dsts, routed[3]) if record else results


def _cell_tallies(config: ExperimentConfig, count: int, rep, split, codes, hops, rev):
    """Every replicate's result in a block of `count` replicates: per
    replicate, a {method: MethodTally} dict and its structurally
    unreachable count. The inputs are (methods, packets) arrays of verdict
    codes, hops and reverse hops, each packet's replicate index, and its
    split flag (src and dst in different components). Every field is
    counted, summed or maximized per (replicate, method) cell, in one
    array. A replicate with fewer than two alive nodes routed no packets:
    its row is all zeros but for its missing packets, each dropped as
    unreachable and counted structurally unreachable."""
    width = len(config.methods)
    cells = count * width
    key = rep * width + np.arange(width)[:, None]
    by_code = np.bincount(
        (codes.astype(np.intp) * cells + key).ravel(), minlength=3 * cells
    ).reshape(3, count, width)
    missing = config.packets_per_replicate - by_code[:, :, 0].sum(axis=0)
    ok = codes == 0
    key, hops, rev = key[ok], hops[ok], rev[ok]
    delivered = np.zeros((3, cells), dtype=np.int64)  # hops, reverse hops, most hops
    for row, ufunc, values in zip(delivered, (np.add, np.add, np.maximum), (hops, rev, hops)):
        ufunc.at(row, key, values)
    # MethodTally's fields in order, as one (count, width, 8) table
    table = np.stack([
        *by_code,
        np.broadcast_to(missing[:, None], (count, width)),
        np.bincount(key[rev > 0], minlength=cells).reshape(count, width),
        *delivered.reshape(3, count, width),
    ], axis=-1)
    unreachable = np.bincount(rep[split], minlength=count) + missing
    return [
        ({m: MethodTally(*row[:7], max_hops_delivered=row[7] if row[0] else None)
          for m, row in zip(config.methods, by_method)}, unreached)
        for by_method, unreached in zip(table.tolist(), unreachable.tolist())
    ]


def _blocks(config: ExperimentConfig, workers: int = 1):
    """(p, p_index, replicates) of each block in sweep order: at most
    _BLOCK_NODES stacked nodes, and about four blocks per worker and p."""
    size = max(1, _BLOCK_NODES // (config.rows * config.cols))
    if workers > 1:
        size = min(size, max(1, config.replicates // (4 * workers)))
    return [
        (p, p_index, range(start, min(start + size, config.replicates)))
        for p_index, p in enumerate(config.p_values)
        for start in range(0, config.replicates, size)
    ]


def _sweep_cells(config: ExperimentConfig, workers: int = 1):
    """Each p cell's results in sweep order, one list per p in replicate
    order, yielded as soon as the cell's last block is routed and before
    the next p's first block is taken, so a caller that drops each cell
    holds one p's results at a time. The blocks are routed in order by
    the serial map or by the pool's ordered map; the pool stays open while
    the generator is consumed."""
    # a forked pool starts all its workers at once, so ask for no more
    # than there are cores, nor than there are blocks
    workers = min(workers, os.cpu_count() or 1)
    blocks = _blocks(config, workers)
    args = (itertools.repeat(config), *zip(*blocks))
    workers = min(workers, len(blocks))
    if workers <= 1:
        yield from _cells(blocks, map(_route_block, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from _cells(blocks, pool.map(_route_block, *args))


def _cells(blocks, chunks):
    """The results `chunks` of `blocks`, block by block, joined into one
    list per p cell; a cell's blocks are contiguous in `blocks`, and no
    chunk past a cell's last is taken before the cell is yielded."""
    chunks = iter(chunks)
    for _, cell in itertools.groupby(blocks, key=lambda block: block[1]):
        yield [r for _ in cell for r in next(chunks)]


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[ReplicateResult]:
    """All replicates for all p values, ordered by (p_index,
    replicate_index). The result is a pure function of the config; the
    worker count only changes wall time."""
    return [r for cell in _sweep_cells(config, workers) for r in cell]
