"""Argument parsing, table rendering, manifests and the end-to-end runner."""

import dataclasses
import json
import os

import pytest

from torusflow.cli import (
    AGGREGATE_COLUMNS,
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
from torusflow.forwarding import EngineConfig, Method, Verdict, route_packet
from torusflow.montecarlo import ExperimentConfig, replicate_inputs
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
    assert options["workers"] == 1


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


def test_parse_args_rejections():
    bad_argvs = [
        ["--rows", "2"],
        ["--methods", "warp"],
        ["--methods", ""],
        ["--p", "0.1,oops"],
        ["--p", "1.5"],
        ["--p", ""],
        ["--points", "0"],
        ["--sst", "10", "--ttl", "2"],
        ["--figures", "fig9"],
        ["--replicates", "0"],
        ["--packets-per-replicate", "0"],
        ["--workers", "0"],
    ]
    for argv in bad_argvs:
        with pytest.raises(SystemExit):
            parse_args(argv)


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


def test_emit_plot_data_rejects_unknown_figure(tmp_path):
    config = micro_config()
    with pytest.raises(ValueError):
        emit_plot_data([], config, "fig7", str(tmp_path / "x.csv"))


def test_no_temp_residue(tmp_path):
    config = micro_config()
    run_experiment(config, micro_options(tmp_path, figures=("fig4",)))
    leftovers = [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
    assert leftovers == []


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
