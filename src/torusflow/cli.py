"""Command-line sweep runner.

Writes, per run: a flat key=value manifest (config echo, version, timestamp,
output paths), an aggregate metrics table (csv or json), optional per-figure
series files, and an optional per-hop trace dump for small debug runs. All
data files are written atomically and are byte-stable for a given config;
only the manifest timestamp varies between identical runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import fields
from itertools import chain

import numpy as np

from . import __version__
from .analysis import AggregateMetrics, _aggregate_cells, aggregate_sweep
from .forwarding import EngineConfig, HopKind, Method, default_engine_config
from .montecarlo import ExperimentConfig, _blocks, _route_block, _sweep_cells
from .potential import _base_tables, _relative_index
from .topology import Direction, FailureMode, _neighbor_table, build_torus

REGIMES = {
    "low": (0.0001, 0.01),
    "medium": (0.001, 0.1),
    "high": (0.01, 1.0),
}

AGGREGATE_COLUMNS = (
    "method", "mode", "rows", "cols", "p", "n_replicates", "n_packets",
    "loss_rate", "improvement_pts", "max_hops_mean", "max_hops_max",
    "rf_packet_ratio", "rf_hops_ratio", "largest_cc_fraction_mean",
)

FIGURE_COLUMNS = {
    "fig4": ("p", "method", "loss_rate", "improvement_pts"),
    "fig5": ("p", "method", "max_hops_mean"),
    "fig6": ("p", "method", "rf_packet_ratio", "rf_hops_ratio"),
}


def log_spaced(lo: float, hi: float, points: int) -> list[float]:
    """Geometric grid from lo to hi inclusive."""
    if points == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (points - 1))
    values = [lo * ratio**i for i in range(points)]
    values[-1] = hi  # pin the endpoint against rounding drift
    return values


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torusflow",
        description="Packet-loss percolation sweeps for reverse-flow "
        "forwarding on 2D torus networks.",
    )
    ap.add_argument("--rows", type=int, default=16)
    ap.add_argument("--cols", type=int, default=16)
    ap.add_argument("--mode", choices=["bond", "site"], default="bond")
    ap.add_argument(
        "--methods",
        default="NF,LFA,RF_CF,RF_LF",
        help="comma-separated subset of NF,LFA,RF_CF,RF_LF",
    )
    sweep = ap.add_mutually_exclusive_group()
    sweep.add_argument("--p", help="explicit comma-separated failure probabilities")
    sweep.add_argument(
        "--regime",
        choices=sorted(REGIMES),
        help="named log-spaced sweep range (default: medium)",
    )
    ap.add_argument("--points", type=int, default=20, help="sweep grid size")
    ap.add_argument("--replicates", type=int, default=1000)
    ap.add_argument("--packets-per-replicate", type=int, default=100)
    ap.add_argument("--sst", type=int, default=None,
                    help="reverse-hop switch threshold (default: 2 * diameter)")
    ap.add_argument("--ttl", type=int, default=None,
                    help="hop budget per packet (default: 16 * diameter)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--format", choices=["csv", "json"], default="csv")
    ap.add_argument("--figures", default="",
                    help="comma-separated subset of fig4,fig5,fig6")
    ap.add_argument("--dump-traces", action="store_true",
                    help="write one line per hop (small runs only)")
    ap.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                    help="most sweep worker processes (default: the core "
                    "count, %(default)s here); no effect with --dump-traces, "
                    "which routes in one process")
    return ap


def parse_args(argv=None):
    ap = build_parser()
    ns = ap.parse_args(argv)

    names = [token.strip().replace("-", "_").upper() for token in ns.methods.split(",")]
    if ns.p is not None:
        try:
            p_values = tuple(float(tok) for tok in ns.p.split(",") if tok.strip())
        except ValueError:
            ap.error(f"--p: could not parse {ns.p!r}")
    else:
        if ns.points < 1:
            ap.error(f"--points: need at least 1, got {ns.points}")
        lo, hi = REGIMES[ns.regime or "medium"]
        p_values = tuple(log_spaced(lo, hi, ns.points))
    if ns.workers < 1:
        ap.error(f"--workers: need at least 1, got {ns.workers}")

    # the torus, engine and experiment configs validate the rest
    try:
        engine = None
        if ns.sst is not None or ns.ttl is not None:
            dflt = default_engine_config(build_torus(ns.rows, ns.cols))
            engine = EngineConfig(
                sst=ns.sst if ns.sst is not None else dflt.sst,
                ttl=ns.ttl if ns.ttl is not None else dflt.ttl,
            )
        config = ExperimentConfig(
            rows=ns.rows,
            cols=ns.cols,
            mode=ns.mode,
            methods=tuple(filter(None, names)),
            p_values=p_values,
            replicates=ns.replicates,
            packets_per_replicate=ns.packets_per_replicate,
            engine=engine,
            master_seed=ns.seed,
        )
    except ValueError as exc:
        ap.error(str(exc))

    options = {
        "out_dir": ns.out_dir,
        "format": ns.format,
        "figures": tuple(t.strip() for t in ns.figures.split(",") if t.strip()),
        "dump_traces": ns.dump_traces,
        "workers": ns.workers,
    }
    for i, fig in enumerate(options["figures"]):
        if fig not in FIGURE_COLUMNS:
            ap.error(f"--figures: unknown figure {fig!r}")
        if fig in options["figures"][:i]:
            ap.error(f"--figures: duplicate figure {fig!r}")
    return config, options


# ---------------------------------------------------------------------------
# rendering

def fmt_real(x) -> str:
    """Reals at six significant digits, empty for missing."""
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    s = format(float(x), "#.6g")
    return s.rstrip(".") if s.endswith(".") else s


_CHUNK_HOPS = 2048  # trace dump lines rendered and written per write call


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text handle on a temporary file beside path; the file replaces path
    when the block completes and is deleted when it raises. The file gets
    the mode a plain open would give it, not mkstemp's 0600."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:  # closes fd whatever fails next
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str):
    with _atomic_open(path) as handle:
        handle.write(text)


# columns written as integers: the torus shape and AggregateMetrics' int fields
_INT_COLUMNS = {"rows", "cols"}.union(
    f.name for f in fields(AggregateMetrics) if f.type.startswith("int")
)


def _text(value):
    """A Method by name, a FailureMode by value, anything else as it is."""
    if isinstance(value, Method):
        return value.name
    return value.value if isinstance(value, FailureMode) else value


def _emit_table(path: str, columns, metrics, config: ExperimentConfig, fmt: str):
    """One row per AggregateMetrics, from its own fields and the torus
    shape, projected on `columns`."""
    cells = [{"rows": config.rows, "cols": config.cols, **vars(m)} for m in metrics]
    records = [{c: _text(row[c]) for c in columns} for row in cells]
    if fmt == "json":  # JSON has no NaN: a missing improvement is null
        records = [{c: None if isinstance(v, float) and math.isnan(v) else v
                    for c, v in rec.items()} for rec in records]
        _atomic_write(path, json.dumps(records, indent=2) + "\n")
        return
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(
            v if isinstance(v, str)
            else str(v) if v is not None and c in _INT_COLUMNS else fmt_real(v)
            for c, v in rec.items()
        ))
    _atomic_write(path, "\n".join(lines) + "\n")


def emit_aggregate(metrics, config: ExperimentConfig, path: str, fmt: str = "csv"):
    _emit_table(path, AGGREGATE_COLUMNS, metrics, config, fmt)


def emit_plot_data(metrics, config: ExperimentConfig, figure: str, path: str,
                   fmt: str = "csv"):
    if figure not in FIGURE_COLUMNS:
        raise ValueError(f"unknown figure {figure!r}")
    _emit_table(path, FIGURE_COLUMNS[figure], metrics, config, fmt)


def emit_traces(config: ExperimentConfig, path: str):
    """One csv line per hop of every packet, replayable from the config.
    Each of the sweep's blocks is drawn, routed and tallied by one traced
    _route_block call, so every packet is routed once. Per block, the
    lengths, line heads and destinations of its (packet, method) traces are
    computed once; its hops are then rendered and written _CHUNK_HOPS at a
    time, a chunk ending wherever it falls, even inside a trace. So the
    dump holds one block's traces plus one chunk's arrays and text, however
    long the traces. Each line is joined from text tables keyed by hop code
    (see the routing loops in forwarding) and by 4 * relative index + port.
    Returns the sweep's results, equal to run_sweep(config)."""
    rows, cols = config.rows, config.cols
    phi = _base_tables(rows, cols)[0]
    nbr = _neighbor_table(rows, cols)
    labels = [f"{r}:{c}" for r in range(rows) for c in range(cols)]
    hop_text = np.array([  # from,to,dir,kind, in hop code order
        f"{labels[a]},{labels[nbr[4 * a + d]]},{d.name},{kind.value},"
        for a in range(rows * cols) for d in Direction for kind in HopKind
    ], dtype=object)
    phi_text = np.array([  # phi_from,phi_to
        f"{phi[i >> 2]},{phi[nbr[i]]}\n" for i in range(4 * rows * cols)
    ], dtype=object)
    index_text = np.array([], dtype=object)  # hop indices, grown to the longest trace
    width, packets = len(config.methods), config.packets_per_replicate
    tails = np.array([f"{k},{m.name}," for k in range(packets)
                      for m in config.methods], dtype=object)  # packet,method,
    # four text references per hop, interleaved; no string per line, and
    # one list for every full chunk
    cells = [""] * (4 * _CHUNK_HOPS)
    results = []
    with _atomic_open(path) as out:
        out.write("packet,method,hop,from,to,dir,kind,phi_from,phi_to\n")
        for p, p_index, reps in _blocks(config):
            block, block_rep, block_dsts, by_method = _route_block(
                config, p, p_index, reps, True)
            results += block
            # the block's traces in file order: replicate, packet, method; a
            # replicate routes all of its packets or none
            traces = list(chain.from_iterable(zip(*by_method)))
            lengths = np.fromiter(map(len, traces), np.intp, len(traces))
            ends = np.cumsum(lengths)
            starts = ends - lengths
            prefixes = np.array([f"p{p_index}.r{rep}." for rep in reps], dtype=object)
            heads = np.repeat(prefixes[block_rep], width) + np.tile(tails, len(block_rep) // packets)
            dsts = np.repeat(block_dsts, width)
            longest = int(lengths.max(initial=0))
            if longest > len(index_text):
                index_text = np.array([f"{i}," for i in range(longest)], dtype=object)
            codes_in_order = chain.from_iterable(traces)
            total = int(lengths.sum())
            for first in range(0, total, _CHUNK_HOPS):
                last = min(first + _CHUNK_HOPS, total)
                codes = np.fromiter(codes_in_order, np.intp, last - first)
                # traces lo..hi, clipped to the chunk, hold its hops
                lo, hi = ends.searchsorted((first, last - 1), "right").tolist()
                span = slice(lo, hi + 1)
                trace = np.repeat(np.arange(lo, hi + 1), np.minimum(ends[span], last)
                                  - np.maximum(starts[span], first))
                rel = _relative_index(rows, cols, codes >> 3, dsts[trace])
                chunk = cells if codes.size == _CHUNK_HOPS else [""] * (4 * codes.size)
                chunk[0::4] = heads[trace].tolist()
                chunk[1::4] = index_text[np.arange(first, last) - starts[trace]].tolist()
                chunk[2::4] = hop_text[codes].tolist()
                chunk[3::4] = phi_text[4 * rel + (codes >> 1 & 3)].tolist()
                out.write("".join(chunk))
    return results


# ---------------------------------------------------------------------------
# manifest

def write_manifest(path: str, config: ExperimentConfig, options, outputs):
    engine = config.resolved_engine()
    entries = [
        ("tool", "torusflow"),
        ("version", __version__),
        ("created_utc", time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
        ("rows", config.rows),
        ("cols", config.cols),
        ("mode", config.mode.value),
        ("methods", ",".join(m.name for m in config.methods)),
        ("p_values", ",".join(repr(p) for p in config.p_values)),
        ("replicates", config.replicates),
        ("packets_per_replicate", config.packets_per_replicate),
        ("sst", engine.sst),
        ("ttl", engine.ttl),
        ("master_seed", config.master_seed),
        ("format", options["format"]),
        ("workers", options["workers"]),
        *outputs,
    ]
    _atomic_write(path, "\n".join(f"{k} = {v}" for k, v in entries) + "\n")


def read_manifest(path: str) -> dict:
    with open(path) as handle:
        entries = (line.strip().partition(" = ") for line in handle)
        return {key: value for key, _, value in entries if key}


def config_from_manifest(manifest: dict) -> ExperimentConfig:
    """Rebuild the exact ExperimentConfig a manifest echoes."""
    return ExperimentConfig(
        rows=int(manifest["rows"]),
        cols=int(manifest["cols"]),
        mode=manifest["mode"],
        methods=tuple(manifest["methods"].split(",")),
        p_values=tuple(float(p) for p in manifest["p_values"].split(",")),
        replicates=int(manifest["replicates"]),
        packets_per_replicate=int(manifest["packets_per_replicate"]),
        engine=EngineConfig(sst=int(manifest["sst"]), ttl=int(manifest["ttl"])),
        master_seed=int(manifest["master_seed"]),
    )


# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig, options) -> dict:
    out_dir = options["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    fmt = options["format"]
    ext = "csv" if fmt == "csv" else "json"

    traces_path = os.path.join(out_dir, "traces.csv")
    if options["dump_traces"]:
        metrics = aggregate_sweep(emit_traces(config, traces_path), config)
    else:  # each p cell is aggregated as it is routed, then dropped
        metrics = _aggregate_cells(_sweep_cells(config, options["workers"]), config)

    outputs = []
    aggregate_path = os.path.join(out_dir, f"aggregate.{ext}")
    emit_aggregate(metrics, config, aggregate_path, fmt)
    outputs.append(("aggregate_path", aggregate_path))

    for fig in options["figures"]:
        fig_path = os.path.join(out_dir, f"{fig}.{ext}")
        emit_plot_data(metrics, config, fig, fig_path, fmt)
        outputs.append((f"{fig}_path", fig_path))

    if options["dump_traces"]:
        outputs.append(("traces_path", traces_path))

    manifest_path = os.path.join(out_dir, "manifest.txt")
    write_manifest(manifest_path, config, options, outputs)
    return {"manifest_path": manifest_path, **dict(outputs)}


def main(argv=None) -> int:
    config, options = parse_args(argv)
    paths = run_experiment(config, options)
    total = len(config.p_values) * config.replicates
    print(
        f"torusflow: {config.rows}x{config.cols} {config.mode.value} sweep, "
        f"{len(config.p_values)} p-values x {config.replicates} replicates "
        f"({total} scenarios), methods {','.join(m.name for m in config.methods)}",
        file=sys.stderr,
    )
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
