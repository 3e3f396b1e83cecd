"""Aggregation of replicate results into per-(method, p) metrics.

Loss improvements are paired differences against NF over the same replicates
and the same packets, reported in absolute percentage points. Reverse-flow
ratios are taken over delivered packets only. Replicates that delivered
nothing contribute no max-hop sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .forwarding import Method
from .montecarlo import ExperimentConfig, ReplicateResult
from .topology import FailureMode


@dataclass(frozen=True)
class AggregateMetrics:
    method: Method
    mode: FailureMode
    p: float
    n_replicates: int
    n_packets: int
    loss_rate: float
    improvement_pts: float  # NaN when NF was not simulated
    max_hops_mean: float | None  # None when no replicate delivered anything
    max_hops_max: int | None
    rf_packet_ratio: float
    rf_hops_ratio: float
    largest_cc_fraction_mean: float


def _aggregate(
    rows: list[ReplicateResult], method: Method, mode: FailureMode, p: float
) -> AggregateMetrics:
    """Collapse the replicates of one p into one row for one method."""
    n_packets = sum(r.n_packets for r in rows)
    tallies = [r.tallies[method] for r in rows]
    delivered = sum(t.delivered for t in tallies)
    lost = sum(t.lost for t in tallies)
    loss_rate = lost / n_packets

    if Method.NF in rows[0].tallies:
        nf_lost = sum(r.tallies[Method.NF].lost for r in rows)
        improvement = (nf_lost / n_packets - loss_rate) * 100.0
    else:
        improvement = math.nan

    max_samples = [
        t.max_hops_delivered for t in tallies if t.max_hops_delivered is not None
    ]
    max_hops_mean = sum(max_samples) / len(max_samples) if max_samples else None
    max_hops_max = max(max_samples) if max_samples else None

    with_reverse = sum(t.delivered_with_reverse for t in tallies)
    hops_total = sum(t.total_hops_delivered for t in tallies)
    rev_total = sum(t.reverse_hops_delivered for t in tallies)
    rf_packet_ratio = with_reverse / delivered if delivered else 0.0
    rf_hops_ratio = rev_total / hops_total if hops_total else 0.0

    return AggregateMetrics(
        method=method,
        mode=mode,
        p=p,
        n_replicates=len(rows),
        n_packets=n_packets,
        loss_rate=loss_rate,
        improvement_pts=improvement,
        max_hops_mean=max_hops_mean,
        max_hops_max=max_hops_max,
        rf_packet_ratio=rf_packet_ratio,
        rf_hops_ratio=rf_hops_ratio,
        largest_cc_fraction_mean=sum(r.largest_cc_fraction for r in rows) / len(rows),
    )


def aggregate_sweep(
    results: list[ReplicateResult], config: ExperimentConfig
) -> list[AggregateMetrics]:
    """One row per (method, p), methods in declaration order of the Method
    enum, p ascending within each method. The results may come in any
    order; they are grouped into p cells first, each in its given order."""
    by_p = {}
    for r in results:
        by_p.setdefault(r.p_index, []).append(r)
    return _aggregate_cells(by_p.values(), config)


def _aggregate_cells(cells, config: ExperimentConfig) -> list[AggregateMetrics]:
    """aggregate_sweep's rows from an iterable of p cells, each a list of
    one p's results. Each cell is aggregated as it arrives and only its
    rows are kept, so a streamed sweep (montecarlo._sweep_cells) holds one
    cell's results at a time. Cells of equal p keep their arrival order."""
    methods = [m for m in Method if m in config.methods]

    def cell_rows(cell):
        p = config.p_values[cell[0].p_index]
        return p, [_aggregate(cell, m, config.mode, p) for m in methods]

    by_p = sorted(map(cell_rows, cells), key=lambda pair: pair[0])
    return [rows[i] for i in range(len(methods)) for _, rows in by_p]
