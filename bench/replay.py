"""In-process pass over one workload, run as a child of bench/run.py.

    python3 bench/replay.py sweep|trace -- <torusflow CLI arguments>

`sweep` times one plain `run_sweep` with one worker. `trace` replays the
same replicates through the public function of each module (topology,
potential, forwarding, montecarlo, analysis, cli) and times every call from
outside the package, then writes `aggregate.csv` (and `traces.csv` when the
arguments ask for it) into the run's `--out-dir`. Both modes print one JSON
object on stdout. Each pass runs in a fresh interpreter so that, like a CLI
run, it starts with cold per-destination tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

from run import file_digest  # bench/run.py, next to this file
from torusflow import analysis, cli, forwarding, montecarlo, potential, topology


def tally_digest(results) -> str:
    """SHA-256 over every field of every replicate's tallies, so two passes
    can be compared without shipping the tallies themselves."""
    rows = []
    for r in sorted(results, key=lambda r: (r.p_index, r.replicate_index)):
        rows.append([
            r.p_index, r.replicate_index, repr(r.p), r.n_packets,
            repr(r.largest_cc_fraction), r.structurally_unreachable_pairs,
            {m.name: [
                t.delivered, t.dropped_no_egress, t.dropped_ttl,
                t.dropped_unreachable_dest, t.delivered_with_reverse,
                t.total_hops_delivered, t.reverse_hops_delivered,
                t.max_hops_delivered,
            ] for m, t in r.tallies.items()},
        ])
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def sweep(config) -> dict:
    t = perf_counter()
    results = montecarlo.run_sweep(config, workers=1)
    sweep_s = perf_counter() - t
    return {
        "montecarlo.sweep_s": sweep_s,
        "tally_sha256": tally_digest(results),
    }


class _MethodCount:
    __slots__ = ("route_s", "routes", "hops", "ttl_hops", "delivered",
                 "no_egress", "ttl", "with_reverse", "hops_delivered",
                 "rev_delivered", "max_hops")

    def __init__(self):
        self.route_s = 0.0
        self.routes = self.hops = self.ttl_hops = 0
        self.reset()

    def reset(self):
        """Clear the per-replicate part; the totals above carry over."""
        self.delivered = self.no_egress = self.ttl = self.with_reverse = 0
        self.hops_delivered = self.rev_delivered = 0
        self.max_hops = None


def trace(config, options) -> dict:
    """Replay every replicate layer by layer and re-derive the outputs."""
    t_replay = perf_counter()
    times = defaultdict(float)
    counts = defaultdict(int)
    topo = topology.build_torus(config.rows, config.cols)
    engine = config.resolved_engine()
    draw = (topology.apply_bond_failures
            if config.mode is topology.FailureMode.BOND
            else topology.apply_site_failures)
    record = options["dump_traces"]
    Verdict = forwarding.Verdict
    methods = config.methods
    per_method = {m: _MethodCount() for m in methods}
    destinations = set()
    results = []

    for p_index, p in enumerate(config.p_values):
        for rep in range(config.replicates):
            t = perf_counter()
            scenario, pairs = montecarlo.replicate_inputs(config, p, p_index, rep)
            times["montecarlo.inputs_s"] += perf_counter() - t

            # the scenario carries its seed, so the draw can be re-timed alone
            t = perf_counter()
            redrawn = draw(topo, scenario.p, scenario.seed)
            times["topology.draw_s"] += perf_counter() - t
            if (redrawn.failed_links != scenario.failed_links
                    or redrawn.failed_nodes != scenario.failed_nodes):
                raise RuntimeError(f"failure draw not replayable at p{p_index}.r{rep}")
            t = perf_counter()
            topology.is_link_alive(redrawn, (0, 0), topology.Direction.N)
            times["topology.port_bits_s"] += perf_counter() - t
            t = perf_counter()
            cc_fraction = topology.largest_component_fraction(redrawn)
            times["topology.labels_s"] += perf_counter() - t
            counts["topology.scenarios"] += 1
            counts["topology.failed_links"] += len(redrawn.failed_links)

            packets = config.packets_per_replicate
            if not pairs:
                dead = montecarlo.MethodTally(dropped_unreachable_dest=packets)
                results.append(montecarlo.ReplicateResult(
                    p, p_index, rep, packets, {m: dead for m in methods},
                    cc_fraction, packets))
                continue
            unreachable = sum(
                1 for a, b in pairs if not topology.is_connected_pair(redrawn, a, b))

            for _, dst in pairs:
                if dst not in destinations:
                    t = perf_counter()
                    potential.compute_potential(topo, dst)
                    times["potential.tables_s"] += perf_counter() - t
                    destinations.add(dst)

            for c in per_method.values():
                c.reset()
            for src, dst in pairs:
                for m in methods:
                    c = per_method[m]
                    t = perf_counter()
                    out = forwarding.route_packet(redrawn, m, src, dst, engine, record)
                    c.route_s += perf_counter() - t
                    c.routes += 1
                    c.hops += out.total_hops
                    counts["forwarding.trace_records"] += len(out.trace)
                    if out.verdict is Verdict.DELIVERED:
                        c.delivered += 1
                        c.hops_delivered += out.total_hops
                        c.rev_delivered += out.reverse_hops
                        c.with_reverse += out.used_reverse
                        if c.max_hops is None or out.total_hops > c.max_hops:
                            c.max_hops = out.total_hops
                    elif out.verdict is Verdict.DROPPED_NO_EGRESS:
                        c.no_egress += 1
                    elif out.verdict is Verdict.DROPPED_TTL:
                        c.ttl += 1
                        c.ttl_hops += out.total_hops
                    else:
                        raise RuntimeError(f"unexpected verdict {out.verdict}")
            tallies = {
                m: montecarlo.MethodTally(
                    delivered=c.delivered,
                    dropped_no_egress=c.no_egress,
                    dropped_ttl=c.ttl,
                    delivered_with_reverse=c.with_reverse,
                    total_hops_delivered=c.hops_delivered,
                    reverse_hops_delivered=c.rev_delivered,
                    max_hops_delivered=c.max_hops,
                )
                for m, c in per_method.items()
            }
            results.append(montecarlo.ReplicateResult(
                p, p_index, rep, packets, tallies, cc_fraction, unreachable))
    replay_s = perf_counter() - t_replay

    t = perf_counter()
    metrics = analysis.aggregate_sweep(results, config)
    times["analysis.aggregate_s"] += perf_counter() - t
    counts["analysis.rows"] = len(metrics)

    out_dir = options["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    t = perf_counter()
    cli.emit_aggregate(metrics, config, aggregate_path, options["format"])
    times["cli.emit_s"] += perf_counter() - t
    counts["cli.bytes_written"] += os.path.getsize(aggregate_path)
    digests = {"aggregate.csv": file_digest(aggregate_path)}
    counts["cli.trace_lines"] = 0
    if record:
        traces_path = os.path.join(out_dir, "traces.csv")
        t = perf_counter()
        cli.emit_traces(config, traces_path)
        times["cli.emit_s"] += perf_counter() - t
        counts["cli.bytes_written"] += os.path.getsize(traces_path)
        with open(traces_path, "rb") as handle:
            counts["cli.trace_lines"] = sum(1 for _ in handle) - 1  # header
        digests["traces.csv"] = file_digest(traces_path)

    counts["potential.destinations"] = len(destinations)
    counts["montecarlo.replicates"] = len(results)
    for m, c in per_method.items():
        key = f"forwarding.{m.name}"
        times[f"{key}.route_s"] = c.route_s
        counts[f"{key}.routes"] = c.routes
        counts[f"{key}.hops"] = c.hops
        counts[f"{key}.ttl_hops"] = c.ttl_hops
        counts[f"{key}.delivered"] = sum(r.tallies[m].delivered for r in results)
        counts[f"{key}.no_egress_drops"] = sum(r.tallies[m].dropped_no_egress for r in results)
        counts[f"{key}.ttl_drops"] = sum(r.tallies[m].dropped_ttl for r in results)
    return {
        "times": dict(times),
        "counts": dict(counts),
        "trace.replay_s": replay_s,
        "tally_sha256": tally_digest(results),
        "digests": digests,
    }


def main(argv) -> int:
    if len(argv) < 2 or argv[0] not in ("sweep", "trace") or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    config, options = cli.parse_args(argv[2:])
    result = sweep(config) if argv[0] == "sweep" else trace(config, options)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
