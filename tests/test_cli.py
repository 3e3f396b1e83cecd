"""Argument parsing, table rendering, manifests and the end-to-end runner."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from torusflow.cli import (
    AGGREGATE_COLUMNS,
    emit_aggregate,
    FIGURE_COLUMNS,
    REGIMES,
    config_from_manifest,
    emit_plot_data,
    emit_traces,
    fmt_real,
    log_spaced,
    main,
    parse_args,
    read_manifest,
    run_experiment,
    write_manifest,
)
from torusflow import analysis, cli, montecarlo
from torusflow.analysis import aggregate_sweep
from torusflow.forwarding import EngineConfig, Method, Verdict, route_packet
from torusflow.montecarlo import ExperimentConfig, _blocks, replicate_inputs, run_sweep
from torusflow.potential import _base_grid
from torusflow.topology import FailureMode


def micro_config(**overrides):
    base = dict(
        rows=4,
        cols=4,
        mode=FailureMode.BOND,
        p_values=(0.0, 0.3),
        replicates=3,
        packets_per_replicate=8,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def micro_options(out_dir, **overrides):
    base = dict(
        out_dir=str(out_dir), format="csv", figures=(), dump_traces=False, workers=1
    )
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# sweep grids and argument parsing

def test_log_spaced_frozen():
    assert log_spaced(0.0001, 0.01, 3) == pytest.approx([0.0001, 0.001, 0.01])
    assert log_spaced(0.5, 0.5, 1) == [0.5]
    grid = log_spaced(0.0001, 1.0, 20)
    assert len(grid) == 20
    assert grid[0] == 0.0001
    assert grid[-1] == 1.0
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    for r in ratios:
        assert r == pytest.approx(ratios[0], rel=1e-9)


def test_regime_bounds():
    assert REGIMES == {
        "low": (0.0001, 0.01),
        "medium": (0.001, 0.1),
        "high": (0.01, 1.0),
    }


def test_parse_args_defaults_to_medium_regime():
    config, options = parse_args([])
    assert config.rows == config.cols == 16
    assert config.mode is FailureMode.BOND
    assert config.methods == (Method.NF, Method.LFA, Method.RF_CF, Method.RF_LF)
    assert len(config.p_values) == 20
    assert config.p_values[0] == pytest.approx(0.001)
    assert config.p_values[-1] == pytest.approx(0.1)
    assert config.engine is None
    assert options["format"] == "csv"
    assert options["workers"] == (os.cpu_count() or 1)


def test_parse_args_named_regimes():
    low, _ = parse_args(["--regime", "low", "--points", "3"])
    assert low.p_values == pytest.approx((0.0001, 0.001, 0.01))
    high, _ = parse_args(["--regime", "high", "--points", "3"])
    assert high.p_values == pytest.approx((0.01, 0.1, 1.0))


def test_parse_args_explicit_probabilities_and_methods():
    config, _ = parse_args(["--p", "0.2,0.01", "--methods", "nf, rf-lf"])
    assert config.p_values == (0.2, 0.01)
    assert config.methods == (Method.NF, Method.RF_LF)


def test_parse_args_engine_overrides():
    config, _ = parse_args(["--rows", "4", "--cols", "4", "--sst", "5"])
    assert config.engine == EngineConfig(sst=5, ttl=64)
    config, _ = parse_args(["--rows", "4", "--cols", "4", "--ttl", "100"])
    assert config.engine == EngineConfig(sst=8, ttl=100)


@pytest.mark.parametrize("argv, key, want", [
    (["--methods", "nf,,rf-lf"], "methods", (Method.NF, Method.RF_LF)),
    (["--methods", "NF, Rf_Cf"], "methods", (Method.NF, Method.RF_CF)),
    (["--p", "0.1,"], "p_values", (0.1,)),
    (["--points", "0", "--p", "0.1"], "p_values", (0.1,)),
    (["--figures", "fig4, fig6"], "figures", ("fig4", "fig6")),
])
def test_parse_args_spellings(argv, key, want):
    """Empty tokens are skipped, and method names ignore case, spaces and
    hyphens; --points matters only to a regime."""
    config, options = parse_args(argv)
    assert (options[key] if key in options else getattr(config, key)) == want


def test_parse_args_rejections(capsys):
    """Each bad argument exits with status 2, and the error names it."""
    bad_argvs = [
        (["--rows", "2"], "2x16"),
        (["--methods", "warp"], "warp"),
        (["--methods", "bogus"], "bogus"),
        (["--methods", ""], "methods"),
        (["--p", "0.1,oops"], "oops"),
        (["--p", "x"], "'x'"),
        (["--p", "1.5"], "1.5"),
        (["--p", ""], "p_values"),
        (["--points", "0"], "points"),
        (["--sst", "10", "--ttl", "2"], "ttl=2"),
        (["--figures", "fig9"], "fig9"),
        (["--figures", "fig4,fig4"], "fig4"),
        (["--replicates", "0"], "replicates"),
        (["--packets-per-replicate", "0"], "packets_per_replicate"),
        (["--workers", "0"], "workers"),
        (["--seed", "-1"], "-1"),  # a master seed outside [0, 2**64) aliases another
        (["--seed", str(2**64)], str(2**64)),
    ]
    for argv, token in bad_argvs:
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2, argv
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("torusflow: error: ") and token in error.lower(), argv


# ---------------------------------------------------------------------------
# rendering

def test_fmt_real_frozen():
    assert fmt_real(0.2) == "0.200000"
    assert fmt_real(1.0) == "1.00000"
    assert fmt_real(0.123456789) == "0.123457"
    assert fmt_real(0.0001) == "0.000100000"
    assert fmt_real(123456.789) == "123457"
    assert fmt_real(None) == ""
    assert fmt_real(float("nan")) == "nan"


def test_aggregate_csv_schema(tmp_path):
    config = micro_config()
    paths = run_experiment(config, micro_options(tmp_path))
    with open(paths["aggregate_path"]) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == ",".join(AGGREGATE_COLUMNS)
    assert len(lines) == 1 + len(config.methods) * len(config.p_values)
    first = dict(zip(AGGREGATE_COLUMNS, lines[1].split(",")))
    assert first["method"] == "NF"
    assert first["mode"] == "bond"
    assert first["rows"] == "4" and first["cols"] == "4"
    assert first["p"] == "0.00000"
    assert first["loss_rate"] == "0.00000"
    assert first["n_packets"] == "24"


def test_figure_files_project_columns(tmp_path):
    config = micro_config()
    paths = run_experiment(
        config, micro_options(tmp_path, figures=("fig4", "fig5", "fig6"))
    )
    for fig, columns in FIGURE_COLUMNS.items():
        with open(paths[f"{fig}_path"]) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == ",".join(columns)
        assert len(lines) == 1 + len(config.methods) * len(config.p_values)


def test_json_format(tmp_path):
    config = micro_config()
    paths = run_experiment(config, micro_options(tmp_path, format="json"))
    with open(paths["aggregate_path"]) as handle:
        records = json.load(handle)
    assert len(records) == len(config.methods) * len(config.p_values)
    assert set(records[0]) == set(AGGREGATE_COLUMNS)
    assert records[0]["method"] == "NF"
    assert records[0]["mode"] == "bond"


def test_json_writes_null_for_a_missing_improvement(tmp_path):
    """Without NF there is no improvement: csv writes nan, and json, which
    has no NaN (RFC 8259), writes null."""
    def no_constants(name):
        raise ValueError(f"non-standard JSON constant {name}")

    config = micro_config(methods=(Method.RF_LF,))
    paths = run_experiment(config, micro_options(tmp_path, format="json"))
    with open(paths["aggregate_path"]) as handle:
        records = json.loads(handle.read(), parse_constant=no_constants)
    assert [r["improvement_pts"] for r in records] == [None, None]
    assert records[1]["loss_rate"] > 0
    paths = run_experiment(config, micro_options(tmp_path))
    with open(paths["aggregate_path"]) as handle:
        lines = handle.read().splitlines()[1:]
    column = AGGREGATE_COLUMNS.index("improvement_pts")
    assert [line.split(",")[column] for line in lines] == ["nan", "nan"]


def test_emit_plot_data_rejects_unknown_figure(tmp_path):
    config = micro_config()
    with pytest.raises(ValueError):
        emit_plot_data([], config, "fig7", str(tmp_path / "x.csv"))


def test_no_temp_residue(tmp_path):
    config = micro_config()
    run_experiment(config, micro_options(tmp_path, figures=("fig4",)))
    leftovers = [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
    assert leftovers == []


def test_failed_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "aggregate.csv"
    path.write_text("earlier\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with cli._atomic_open(str(path)) as handle:
            handle.write("partial")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"earlier\n"
    assert os.listdir(tmp_path) == ["aggregate.csv"]


def test_failed_setup_closes_the_temporary_file(tmp_path, monkeypatch):
    """A failure before the text handle is written to still closes the
    temporary file's descriptor and removes the file."""
    path = tmp_path / "aggregate.csv"
    path.write_text("earlier\n")
    made = []
    mkstemp = tempfile.mkstemp

    def recorded(*args, **kwargs):
        made.append(mkstemp(*args, **kwargs))
        return made[-1]

    def refused(fd, mode):
        raise PermissionError("fchmod refused")

    monkeypatch.setattr(tempfile, "mkstemp", recorded)
    monkeypatch.setattr(os, "fchmod", refused)
    with pytest.raises(PermissionError, match="fchmod refused"):
        with cli._atomic_open(str(path)):
            pass
    [(fd, _)] = made
    with pytest.raises(OSError):
        os.fstat(fd)
    assert path.read_bytes() == b"earlier\n"
    assert os.listdir(tmp_path) == ["aggregate.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_output_files_get_the_umask_mode(tmp_path, umask):
    """Every output gets 0666 minus the umask, as a plain open gives it,
    in csv and json alike."""
    old = os.umask(umask)
    try:
        paths = []
        for fmt in ("csv", "json"):
            paths += run_experiment(micro_config(), micro_options(
                tmp_path / fmt, format=fmt, figures=tuple(FIGURE_COLUMNS),
                dump_traces=True,
            )).values()
    finally:
        os.umask(old)
    assert len(paths) == 12  # per format: manifest, aggregate, 3 figures, traces
    for path in paths:
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask, path


def test_reruns_are_byte_identical(tmp_path):
    config = micro_config()
    a = run_experiment(config, micro_options(tmp_path / "a", figures=("fig6",)))
    b = run_experiment(config, micro_options(tmp_path / "b", figures=("fig6",)))
    for key in ("aggregate_path", "fig6_path"):
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read()
    ma = read_manifest(a["manifest_path"])
    mb = read_manifest(b["manifest_path"])
    volatile = {"created_utc"} | {k for k in ma if k.endswith("_path")}
    assert {k: v for k, v in ma.items() if k not in volatile} == {
        k: v for k, v in mb.items() if k not in volatile
    }


def test_manifest_round_trip(tmp_path):
    config = micro_config(
        p_values=(0.001, 0.0375, 1 / 3),
        engine=EngineConfig(sst=6, ttl=50),
        mode=FailureMode.SITE,
        methods=(Method.NF, Method.RF_CF),
    )
    path = str(tmp_path / "manifest.txt")
    write_manifest(path, config, micro_options(tmp_path), [("aggregate_path", "x.csv")])
    manifest = read_manifest(path)
    assert config_from_manifest(manifest) == config
    assert manifest["aggregate_path"] == "x.csv"
    assert manifest["tool"] == "torusflow"


@pytest.mark.parametrize("p_values", [tuple(np.linspace(0.05, 0.1, 2)), [0.05, 0.1]],
                         ids=["numpy-floats", "list"])
def test_manifest_round_trip_of_p_values_as_given(tmp_path, p_values):
    """NumPy floats reached the manifest as 'np.float64(0.05)', which
    config_from_manifest cannot read, and a list left the config
    unhashable and unequal to its rebuild: the config stores a tuple of
    floats."""
    config = micro_config(p_values=p_values)
    assert config.p_values == (0.05, 0.1) and {type(p) for p in config.p_values} == {float}
    paths = run_experiment(config, micro_options(tmp_path))
    rebuilt = config_from_manifest(read_manifest(paths["manifest_path"]))
    assert dataclasses.replace(rebuilt, engine=None) == config
    assert hash(dataclasses.replace(rebuilt, engine=None)) == hash(config)


def test_manifest_round_trip_with_default_engine(tmp_path):
    config = micro_config()
    path = str(tmp_path / "manifest.txt")
    write_manifest(path, config, micro_options(tmp_path), [])
    rebuilt = config_from_manifest(read_manifest(path))
    # the manifest pins the resolved engine; everything else must match
    assert rebuilt.engine == config.resolved_engine()
    assert dataclasses.replace(rebuilt, engine=None) == config


def test_trace_dump_is_replayable(tmp_path):
    config = micro_config(p_values=(0.0, 0.25), replicates=2, packets_per_replicate=6)
    paths = run_experiment(config, micro_options(tmp_path, dump_traces=True))
    with open(paths["traces_path"]) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "packet,method,hop,from,to,dir,kind,phi_from,phi_to"
    flights = {}
    for line in lines[1:]:
        pid, method, hop, src, dst, d, kind, phi_from, phi_to = line.split(",")
        flights.setdefault((pid, method), []).append(
            (int(hop), src, dst, d, kind, int(phi_from), int(phi_to))
        )
    assert flights
    for steps in flights.values():
        assert [s[0] for s in steps] == list(range(len(steps)))
        for (_, _, to_a, *_), (_, from_b, *_) in zip(steps, steps[1:]):
            assert to_a == from_b
        for _, _, _, d, kind, phi_from, phi_to in steps:
            assert d in ("N", "E", "S", "W")
            assert kind == ("forward" if phi_to < phi_from else "reverse")
            assert abs(phi_to - phi_from) <= 1


def render_trace_lines(config):
    """traces.csv rendered independently of emit_traces: hop records from
    route_packet, potentials read off the closed-form grid in the
    destination's frame. Also returns how many RF routes ran to the ttl."""
    rows, cols = config.rows, config.cols
    grid = _base_grid(rows, cols)
    engine = config.resolved_engine()
    lines = ["packet,method,hop,from,to,dir,kind,phi_from,phi_to\n"]
    looped = 0
    for p_index, p in enumerate(config.p_values):
        for rep in range(config.replicates):
            scenario, pairs = replicate_inputs(config, p, p_index, rep)
            for k, (src, dst) in enumerate(pairs):
                for method in config.methods:
                    out = route_packet(scenario, method, src, dst, engine)
                    looped += method.name.startswith("RF") and (
                        out.verdict is Verdict.DROPPED_TTL
                    )
                    assert len(out.trace) == out.total_hops
                    for i, hop in enumerate(out.trace):
                        phi = [
                            grid[(r - dst[0]) % rows, (c - dst[1]) % cols]
                            for r, c in (hop.from_node, hop.to_node)
                        ]
                        lines.append(
                            f"p{p_index}.r{rep}.{k},{method.name},{i},"
                            f"{hop.from_node[0]}:{hop.from_node[1]},"
                            f"{hop.to_node[0]}:{hop.to_node[1]},"
                            f"{hop.direction.name},{hop.kind.value},{phi[0]},{phi[1]}\n"
                        )
    return "".join(lines), looped


@pytest.mark.parametrize("rows, cols, p_values, sst", [
    (8, 8, (0.2, 0.3), 3),  # has RF routes that loop to the ttl
    (5, 7, (0.1, 0.3), None),  # rows != cols catches transposed tables
])
def test_trace_dump_matches_independent_rendering(tmp_path, rows, cols, p_values, sst):
    config = micro_config(rows=rows, cols=cols, p_values=p_values, replicates=3,
                          packets_per_replicate=10, master_seed=11)
    if sst is not None:
        dflt = config.resolved_engine()
        config = dataclasses.replace(config, engine=EngineConfig(sst=sst, ttl=dflt.ttl))
    path = tmp_path / "traces.csv"
    emit_traces(config, str(path))
    want, looped = render_trace_lines(config)
    assert path.read_text() == want
    if sst is not None:
        assert looped > 0


def test_trace_dump_memory_does_not_grow_with_the_ttl(tmp_path):
    """Fault-free routes are a few hops long whatever the ttl, and so is
    the dump's hop index table."""
    config = micro_config(p_values=(0.0,), replicates=1, packets_per_replicate=5)
    emit_traces(config, str(tmp_path / "default.csv"))
    long_ttl = dataclasses.replace(config, engine=EngineConfig(sst=8, ttl=500_000))
    tracemalloc.start()
    try:
        emit_traces(long_ttl, str(tmp_path / "long.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "long.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
    assert peak < 5 * 2**20


def test_trace_dump_memory_does_not_grow_with_a_replicates_traces(tmp_path):
    """An 8.7 MiB dump of one replicate is rendered in fixed-size chunks:
    beside the block's traces only one chunk's arrays and text are alive.
    Rendering the replicate's whole text at once peaked at 35 MiB."""
    config = micro_config(rows=16, cols=16, p_values=(0.1,), replicates=1,
                          packets_per_replicate=2000, master_seed=0)
    emit_traces(config, str(tmp_path / "warm.csv"))  # fills the shape's table caches
    tracemalloc.start()
    try:
        emit_traces(config, str(tmp_path / "traces.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "traces.csv").stat().st_size > 8 * 2**20
    assert peak < 8 * 2**20


@pytest.mark.parametrize("overrides", [
    # 113 replicates per block, so three blocks per p
    dict(rows=12, cols=12, mode=FailureMode.SITE, p_values=(0.05, 0.2), replicates=250),
    # at p = 1.0 no replicate has a pair to route
    dict(mode=FailureMode.SITE, p_values=(0.1, 1.0)),
], ids=["12x12_site_three_blocks", "site_p1_no_pairs"])
def test_trace_dump_routes_each_block_once(tmp_path, monkeypatch, overrides):
    config = micro_config(**overrides)
    assert emit_traces(config, str(tmp_path / "traces.csv")) == run_sweep(config)

    assert not hasattr(cli, "_route_stack") and not hasattr(cli, "_block_inputs")
    calls = []
    route_stack = montecarlo._route_stack

    def counted(*args):
        calls.append(args[-1])
        return route_stack(*args)

    monkeypatch.setattr(montecarlo, "_route_stack", counted)
    run_experiment(config, micro_options(tmp_path / "off"))
    want = (tmp_path / "off" / "aggregate.csv").read_bytes()
    for workers in (1, 2):
        calls.clear()
        out = tmp_path / f"dump{workers}"
        run_experiment(config, micro_options(out, dump_traces=True, workers=workers))
        assert calls == [True] * len(_blocks(config))
        assert (out / "aggregate.csv").read_bytes() == want


def test_each_cell_is_aggregated_before_the_next_p_is_routed(tmp_path, monkeypatch):
    """A run holds one p cell's results at a time: every method's row of a
    cell is aggregated after the cell's last block is routed and before
    the next p's first block is. 12x12 routes 113 replicates per block,
    so each p here has three blocks."""
    config = micro_config(rows=12, cols=12, p_values=(0.2, 0.05, 0.1),
                          replicates=230, packets_per_replicate=2)
    events = []
    route_block, aggregate = montecarlo._route_block, analysis._aggregate

    def routed(config, p, p_index, replicates, *rest):
        events.append(("route", p))
        return route_block(config, p, p_index, replicates, *rest)

    def aggregated(rows, method, mode, p):
        events.append(("aggregate", p))
        return aggregate(rows, method, mode, p)

    monkeypatch.setattr(montecarlo, "_route_block", routed)
    monkeypatch.setattr(analysis, "_aggregate", aggregated)
    run_experiment(config, micro_options(tmp_path))
    per_p = len(_blocks(config)) // len(config.p_values)
    assert per_p == 3
    assert events == [
        event for p in config.p_values
        for event in [("route", p)] * per_p + [("aggregate", p)] * len(config.methods)
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("p, methods", [
    ("0.3,0.05,0.2,0.05", "NF,LFA,RF_CF,RF_LF"),
    ("0.2,0.0,0.1", "RF_LF,LFA"),
], ids=["unsorted_p", "no_NF"])
def test_streamed_aggregate_equals_aggregate_sweep(tmp_path, p, methods, workers):
    """The CLI aggregates each p cell as it is routed. Its bytes are those
    of aggregate_sweep on the whole run_sweep list, which sorts p and
    orders the methods itself, for any worker count."""
    argv = ["--rows", "5", "--cols", "4", "--p", p, "--methods", methods,
            "--replicates", "6", "--packets-per-replicate", "7", "--seed", "11",
            "--out-dir", str(tmp_path / "cli"), "--workers", str(workers)]
    assert main(argv) == 0
    config, _ = parse_args(argv)
    emit_aggregate(aggregate_sweep(run_sweep(config), config), config,
                   str(tmp_path / "want.csv"))
    assert ((tmp_path / "cli" / "aggregate.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def test_main_end_to_end(tmp_path, capsys):
    rc = main(
        [
            "--rows", "4",
            "--cols", "4",
            "--p", "0.0,0.1",
            "--replicates", "2",
            "--packets-per-replicate", "5",
            "--out-dir", str(tmp_path),
            "--figures", "fig4",
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "torusflow" in err
    assert (tmp_path / "aggregate.csv").exists()
    assert (tmp_path / "fig4.csv").exists()
    assert (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("extra", [[], ["--dump-traces"]], ids=["plain", "traces"])
def test_cli_never_loads_numpy_random(tmp_path, extra):
    """The sweep's streams come from torusflow.streams. A CLI run must not
    import NumPy's random package, nor the hashlib and OpenSSL modules
    that it pulls in; together they cost megabytes of resident memory."""
    argv = ["--rows", "4", "--cols", "4", "--p", "0.0,0.2", "--replicates", "3",
            "--packets-per-replicate", "6", "--out-dir", str(tmp_path), *extra]
    script = (
        "import sys\n"
        "from torusflow.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted({'numpy.random', 'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "aggregate.csv").exists()
