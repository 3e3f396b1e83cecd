"""Aggregation arithmetic, per (method, p) cell through aggregate_sweep."""

import math

import pytest

from torusflow.analysis import aggregate_sweep
from torusflow.forwarding import Method
from torusflow.montecarlo import (
    ExperimentConfig,
    MethodTally,
    ReplicateResult,
    run_sweep,
)
from torusflow.topology import FailureMode

ALL_METHODS = (Method.NF, Method.LFA, Method.RF_CF, Method.RF_LF)


def rep(p, p_index, rep_index, tallies, packets=100):
    return ReplicateResult(
        p=p,
        p_index=p_index,
        replicate_index=rep_index,
        n_packets=packets,
        tallies=tallies,
        largest_cc_fraction=1.0,
        structurally_unreachable_pairs=0,
    )


def cells(results, methods, p):
    """aggregate_sweep's rows for one p, by method, under a bond config
    that runs exactly `methods` at `p`."""
    config = ExperimentConfig(methods=methods, p_values=(p,))
    return {row.method: row for row in aggregate_sweep(results, config)}


def test_aggregate_frozen_loss_and_improvement():
    """Two replicates of 100 packets; the candidate loses 15 + 10 = 25 of
    200 while the baseline loses 30 + 30 = 60: loss 0.125 against 0.300,
    an improvement of 17.5 points."""
    results = [
        rep(0.05, 0, 0, {
            Method.NF: MethodTally(delivered=70, dropped_no_egress=30),
            Method.RF_LF: MethodTally(delivered=85, dropped_no_egress=15),
        }),
        rep(0.05, 0, 1, {
            Method.NF: MethodTally(delivered=70, dropped_ttl=30),
            Method.RF_LF: MethodTally(delivered=90, dropped_ttl=10),
        }),
    ]
    rows = cells(results, (Method.NF, Method.RF_LF), 0.05)
    row = rows[Method.RF_LF]
    assert row.n_replicates == 2
    assert row.n_packets == 200
    assert row.loss_rate == pytest.approx(0.125)
    assert row.improvement_pts == pytest.approx(17.5)
    base = rows[Method.NF]
    assert base.loss_rate == pytest.approx(0.300)
    assert base.improvement_pts == pytest.approx(0.0)


def test_aggregate_improvement_is_nan_without_baseline():
    results = [
        rep(0.1, 0, 0, {Method.RF_CF: MethodTally(delivered=90, dropped_ttl=10)})
    ]
    row = cells(results, (Method.RF_CF,), 0.1)[Method.RF_CF]
    assert math.isnan(row.improvement_pts)


def test_aggregate_frozen_reverse_ratios():
    """One delivered packet that took 3 hops, 1 of them in reverse flow:
    every delivered packet used reverse flow, a third of the hops did."""
    results = [
        rep(0.02, 0, 0, {
            Method.RF_LF: MethodTally(
                delivered=1,
                dropped_no_egress=99,
                delivered_with_reverse=1,
                total_hops_delivered=3,
                reverse_hops_delivered=1,
                max_hops_delivered=3,
            ),
        }),
    ]
    row = cells(results, (Method.RF_LF,), 0.02)[Method.RF_LF]
    assert row.rf_packet_ratio == pytest.approx(1.0)
    assert row.rf_hops_ratio == pytest.approx(1 / 3)
    assert row.max_hops_mean == pytest.approx(3.0)
    assert row.max_hops_max == 3


def test_aggregate_with_zero_deliveries():
    results = [
        rep(0.9, 0, 0, {Method.NF: MethodTally(dropped_no_egress=100)}),
    ]
    row = cells(results, (Method.NF,), 0.9)[Method.NF]
    assert row.loss_rate == 1.0
    assert row.rf_packet_ratio == 0.0
    assert row.rf_hops_ratio == 0.0
    assert row.max_hops_mean is None
    assert row.max_hops_max is None


def test_aggregate_max_hops_skips_empty_replicates():
    tally_hit = MethodTally(delivered=2, total_hops_delivered=8, max_hops_delivered=5)
    tally_miss = MethodTally(dropped_ttl=100)
    results = [
        rep(0.5, 0, 0, {Method.NF: tally_hit}),
        rep(0.5, 0, 1, {Method.NF: tally_miss}),
    ]
    row = cells(results, (Method.NF,), 0.5)[Method.NF]
    assert row.n_replicates == 2
    assert row.max_hops_mean == pytest.approx(5.0)
    assert row.max_hops_max == 5


def test_aggregate_sweep_row_order():
    cfg = ExperimentConfig(
        rows=4,
        cols=4,
        methods=(Method.RF_LF, Method.NF),
        p_values=(0.3, 0.1),
        replicates=2,
        packets_per_replicate=10,
        master_seed=3,
    )
    rows = aggregate_sweep(run_sweep(cfg), cfg)
    # enum declaration order first, then p ascending within each method
    assert [(r.method, r.p) for r in rows] == [
        (Method.NF, 0.1),
        (Method.NF, 0.3),
        (Method.RF_LF, 0.1),
        (Method.RF_LF, 0.3),
    ]
    assert all(r.mode is FailureMode.BOND for r in rows)
    assert all(r.n_replicates == 2 and r.n_packets == 20 for r in rows)


def test_small_sweep_sanity():
    """Loss grows with p for the baseline, every fallback method dominates
    it pointwise, and structural unreachability is a lower bound."""
    cfg = ExperimentConfig(
        rows=8,
        cols=8,
        p_values=(0.02, 0.1, 0.3),
        replicates=40,
        packets_per_replicate=50,
        master_seed=17,
    )
    results = run_sweep(cfg)
    rows = aggregate_sweep(results, cfg)
    nf = [r for r in rows if r.method is Method.NF]
    assert nf[0].loss_rate < nf[1].loss_rate < nf[2].loss_rate
    for row in rows:
        assert row.improvement_pts >= 0.0
        structural = sum(
            r.structurally_unreachable_pairs
            for r in results
            if r.p == row.p
        ) / row.n_packets
        assert row.loss_rate >= structural - 1e-12
        assert 0.0 < row.largest_cc_fraction_mean <= 1.0
