"""Paired Monte Carlo sweeps over failure probabilities.

One replicate is one failure scenario plus one batch of (src, dst) pairs;
every method routes exactly the same packets over exactly the same scenario,
so per-replicate differences between methods are paired. Replicates are
keyed by (p_index, replicate_index) and seeded independently of execution
order, which makes sweeps reproducible and safe to parallelize.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .forwarding import EngineConfig, Method, default_engine_config, _route_indexed
from .topology import (
    FailureMode,
    FailureScenario,
    apply_bond_failures,
    apply_site_failures,
    build_torus,
    largest_component_fraction,
)

_MASK64 = (1 << 64) - 1
_SCENARIO_SALT = 0x9E3779B97F4A7C15
_TRAFFIC_SALT = 0xC2B2AE3D27D4EB4F


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
    """Uniform (src, dst) node indices over alive nodes, src != dst. Both
    endpoint batches are drawn first, then repeated collisions are redrawn
    in packet order; the generator sequence fixes the result."""
    alive = np.flatnonzero(np.frombuffer(scenario._node_bits, dtype=np.uint8))
    if alive.size < 2:
        return []
    rng = np.random.default_rng(traffic_seed)
    srcs = alive[rng.integers(0, alive.size, size=packets)]
    dsts = alive[rng.integers(0, alive.size, size=packets)]
    for k in np.flatnonzero(srcs == dsts).tolist():
        while dsts[k] == srcs[k]:
            dsts[k] = alive[rng.integers(0, alive.size)]
    return list(zip(srcs.tolist(), dsts.tolist()))


def _replicate_setup(
    config: ExperimentConfig, p: float, p_index: int, replicate_index: int
):
    """Scenario and (src, dst) node index pairs of one replicate, each drawn
    from its own seed derived from the cell key. No pairs when fewer than
    two nodes are alive."""
    rep_seed = seed_for(config.master_seed, p_index, replicate_index)
    topo = build_torus(config.rows, config.cols)
    if config.mode is FailureMode.BOND:
        draw = apply_bond_failures
    else:
        draw = apply_site_failures
    scenario = draw(topo, p, _mix64(rep_seed ^ _SCENARIO_SALT))
    pairs = _sample_pair_indices(
        scenario, _mix64(rep_seed ^ _TRAFFIC_SALT), config.packets_per_replicate
    )
    return scenario, pairs


def replicate_inputs(
    config: ExperimentConfig, p: float, p_index: int, replicate_index: int
):
    """The exact scenario and (src, dst) pairs a replicate routes, for trace
    dumps and for re-deriving tallies with independent code."""
    scenario, pairs = _replicate_setup(config, p, p_index, replicate_index)
    topo = scenario.topology
    return scenario, [(topo.node_at(s), topo.node_at(t)) for s, t in pairs]


def run_replicate(
    config: ExperimentConfig, p: float, p_index: int, replicate_index: int
) -> ReplicateResult:
    scenario, pairs = _replicate_setup(config, p, p_index, replicate_index)
    packets = config.packets_per_replicate
    cc_fraction = largest_component_fraction(scenario)

    if not pairs:
        # not enough survivors to form a pair; every notional packet is
        # structurally undeliverable
        dead_tally = MethodTally(dropped_unreachable_dest=packets)
        return ReplicateResult(
            p=p,
            p_index=p_index,
            replicate_index=replicate_index,
            n_packets=packets,
            tallies={m: dead_tally for m in config.methods},
            largest_cc_fraction=cc_fraction,
            structurally_unreachable_pairs=packets,
        )

    labels = scenario._component_labels.tolist()
    unreachable = sum(1 for s, t in pairs if labels[s] != labels[t])
    engine = config.resolved_engine()
    sst, ttl = engine.sst, engine.ttl

    methods = config.methods
    m_count = len(methods)
    delivered = [0] * m_count
    no_egress = [0] * m_count
    ttl_drop = [0] * m_count
    with_reverse = [0] * m_count
    hops_sum = [0] * m_count
    rev_sum = [0] * m_count
    hops_max = [-1] * m_count

    for s, t in pairs:
        for mi in range(m_count):
            code, hops, rev_hops, _, _ = _route_indexed(
                scenario, methods[mi], s, t, sst, ttl, False
            )
            if code == 0:
                delivered[mi] += 1
                hops_sum[mi] += hops
                rev_sum[mi] += rev_hops
                if rev_hops:
                    with_reverse[mi] += 1
                if hops > hops_max[mi]:
                    hops_max[mi] = hops
            elif code == 1:
                no_egress[mi] += 1
            else:
                ttl_drop[mi] += 1

    tallies = {}
    for mi in range(m_count):
        tallies[methods[mi]] = MethodTally(
            delivered=delivered[mi],
            dropped_no_egress=no_egress[mi],
            dropped_ttl=ttl_drop[mi],
            dropped_unreachable_dest=0,
            delivered_with_reverse=with_reverse[mi],
            total_hops_delivered=hops_sum[mi],
            reverse_hops_delivered=rev_sum[mi],
            max_hops_delivered=hops_max[mi] if hops_max[mi] >= 0 else None,
        )
    return ReplicateResult(
        p=p,
        p_index=p_index,
        replicate_index=replicate_index,
        n_packets=packets,
        tallies=tallies,
        largest_cc_fraction=cc_fraction,
        structurally_unreachable_pairs=unreachable,
    )


def _run_block(args):
    config, p, p_index, rep_start, rep_end = args
    return [
        run_replicate(config, p, p_index, ri) for ri in range(rep_start, rep_end)
    ]


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[ReplicateResult]:
    """All replicates for all p values, ordered by (p_index,
    replicate_index). The result is a pure function of the config; the
    worker count only changes wall time."""
    blocks = []
    step = max(1, config.replicates // max(1, 4 * workers))
    for p_index, p in enumerate(config.p_values):
        for start in range(0, config.replicates, step):
            blocks.append(
                (config, p, p_index, start, min(start + step, config.replicates))
            )
    if workers <= 1:
        chunks = map(_run_block, blocks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_block, blocks))
    results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: (r.p_index, r.replicate_index))
    return results
