"""torusflow benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is taken from `src/`, so
nothing needs installing. Every measured run is a fresh
`python -m torusflow.cli ... --workers 1 --seed N` process, because every
user of the command pays the import and the cold per-destination tables.

--trace 0  End-to-end metrics. `setup_s` is the median time for a fresh
           interpreter to import `torusflow.cli` and parse the workload's
           arguments. Then CLI runs are started back to back for S seconds
           (at least MIN_RUNS); `wall_s` and `peak_rss_mb` are medians over
           them and `routes_per_s` is the routes in `aggregate.csv` over
           `wall_s`.
--trace 1  Per-layer metrics. One CLI run gives the reference outputs; then
           for S seconds (at least MIN_CYCLES) `bench/replay.py` times one
           plain `run_sweep` and one layer-by-layer replay of the same
           replicates, each in its own interpreter. Times are medians over
           the cycles.

Every CLI output passes the output gate: the CLI must exit 0, its
`aggregate.csv` must have the workload's rows and packet counts, and it and
`traces.csv` must match the SHA-256 recorded in `bench/golden.jsonl` for the
seed. A seed not recorded there is checked for repeatability, and one extra
untimed CLI run on a recorded seed is compared with its recording. A
traced run also fails when the replay does not re-derive the CLI's bytes
and the sweep's tallies, or when an exact counter differs between cycles or
from the recorded one. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Outputs go to `.bench_runs/`.
`--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
GOLDEN = BENCH / "golden.jsonl"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 7  # timed interpreter starts per run, after one warm-up
MIN_RUNS = 3  # CLI runs per untraced run, however short --seconds is
MIN_CYCLES = 2  # replay cycles per traced run; two make the counters comparable
CHILD_TIMEOUT_S = 150

METHODS = ("NF", "LFA", "RF_CF", "RF_LF")
SHAPE16 = ("--rows", "16", "--cols", "16", "--mode", "bond", "--regime", "medium")


@dataclass(frozen=True)
class Workload:
    shape: tuple[str, ...]
    points: int
    replicates: int
    packets: int
    traces: bool = False

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        args = [*self.shape, "--points", str(self.points),
                "--replicates", str(self.replicates),
                "--packets-per-replicate", str(self.packets),
                "--methods", ",".join(METHODS), "--workers", "1"]
        if self.traces:
            args.append("--dump-traces")
        return args + ["--seed", str(seed), "--out-dir", str(out_dir)]

    @property
    def outputs(self) -> tuple[str, ...]:
        return ("aggregate.csv", "traces.csv") if self.traces else ("aggregate.csv",)


# Why each workload exists is stated in BENCHMARK.json. Sizes are chosen so
# that several CLI runs fit in one measuring window.
WORKLOADS = {
    "sweep16_bond": Workload(SHAPE16, points=20, replicates=40, packets=100),
    "site64_sparse": Workload(
        ("--rows", "64", "--cols", "64", "--mode", "site", "--regime", "low"),
        points=10, replicates=10, packets=10),
    "traces16_bond": Workload(SHAPE16, points=20, replicates=3, packets=100,
                              traces=True),
}


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Exit:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str


def spawn(argv: list[str], log_dir: Path) -> Exit:
    """Run one child to completion; wall time from spawn to exit, peak RSS
    from wait4. A child past CHILD_TIMEOUT_S is killed and reported as
    failed."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out_path.read_text())


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "torusflow.cli", *argv]


def setup_command(argv: list[str]) -> list[str]:
    code = "import sys, torusflow.cli as c; c.parse_args(sys.argv[1:])"
    return [sys.executable, "-c", code, *argv]


def replay_command(mode: str, argv: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "replay.py"), mode, "--", *argv]


# ---------------------------------------------------------------------------
# output gate


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def recorded_argv(w: Workload) -> str:
    """The workload's arguments without seed and output directory, as the
    recording stores them."""
    return " ".join(w.argv(0, Path("OUT"))[:-4])


def read_golden() -> list[dict]:
    if not GOLDEN.exists():
        return []
    return [json.loads(line) for line in GOLDEN.read_text().splitlines() if line]


def load_golden(name: str, w: Workload) -> dict:
    """Recorded digests and counters of one workload, by seed. Recordings
    made with other workload arguments are refused, not silently skipped."""
    seeds = {}
    for entry in read_golden():
        if entry["workload"] != name:
            continue
        if entry["argv"] != recorded_argv(w):
            raise SystemExit(f"{GOLDEN.name} was recorded for other {name} "
                             "arguments; re-record it with bench/record_golden.py")
        seeds[str(entry["seed"])] = entry
    return seeds


class Gate:
    """Checks every output a run produces against the recorded digests of
    its seed, or, for an unrecorded seed, against the first run's."""

    def __init__(self, w: Workload, recorded: dict | None):
        self.w = w
        self.recorded = recorded
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expected(self, name: str) -> str | None:
        if self.recorded is not None:
            return self.recorded["digests"][name]
        return self.first.get(name)

    def digest_problems(self, digests: dict[str, str]) -> list[str]:
        problems = []
        for name in self.w.outputs:
            got = digests.get(name)
            want = self.expected(name)
            if got is None:
                problems.append(f"{name} missing")
            elif want is not None and got != want:
                problems.append(f"{name} sha256 {got[:12]} != expected {want[:12]}")
        return problems

    def aggregate_problems(self, path: Path) -> tuple[int, list[str]]:
        """Routes in aggregate.csv (sum of n_packets over its rows), and what
        is wrong with its shape."""
        w = self.w
        try:
            with open(path, newline="") as handle:
                rows = list(csv.DictReader(handle))
            n_packets = [int(r["n_packets"]) for r in rows]
            n_replicates = [int(r["n_replicates"]) for r in rows]
        except (KeyError, TypeError, ValueError) as exc:
            return 0, [f"aggregate.csv does not parse: {exc!r}"]
        problems = []
        if len(rows) != len(METHODS) * w.points:
            problems.append(f"aggregate.csv has {len(rows)} rows")
        if (any(n != w.replicates * w.packets for n in n_packets)
                or any(n != w.replicates for n in n_replicates)):
            problems.append("aggregate.csv replicate or packet counts are off")
        return sum(n_packets), problems

    def output_problems(self, out_dir: Path) -> tuple[int, list[str]]:
        digests = {name: file_digest(out_dir / name)
                   for name in self.w.outputs if (out_dir / name).exists()}
        problems = self.digest_problems(digests)
        routes = 0
        if (out_dir / "aggregate.csv").exists():
            routes, more = self.aggregate_problems(out_dir / "aggregate.csv")
            problems += more
        for name, digest in digests.items():
            self.first.setdefault(name, digest)
        return routes, problems

    def record(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def check_cli(self, ex: Exit, out_dir: Path, what: str) -> int | None:
        """Gate one CLI run; its routes when it passed, else None."""
        if ex.code != 0:
            self.record([f"exit code {ex.code}"], what)
            return None
        routes, problems = self.output_problems(out_dir)
        return routes if self.record(problems, what) else None

    def self_check(self, out_dir: Path) -> bool:
        """After a run has passed: the same outputs with one byte of
        aggregate.csv changed must fail the gate."""
        path = out_dir / "aggregate.csv"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        return bool(self.output_problems(out_dir)[1])


# ---------------------------------------------------------------------------
# environment and summaries


def host_probe_s() -> float:
    """Median time of a fixed pure-Python loop. On a shared host the CPU
    speed a process gets swings by 20-50% over seconds to minutes with
    neighbours the load average does not show; this probe does, so a run
    made on a slow host can be told apart."""
    samples = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def environment() -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()

    rev = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            rev = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except subprocess.CalledProcessError:
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "torusflow").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_rev": rev,
        "git_dirty": dirty,
        "src_sha256": h.hexdigest(),
        "loadavg_start": os.getloadavg(),
        "host_probe_s_start": host_probe_s(),
    }


def spread(values: list[float]) -> dict:
    s = sorted(values)
    return {"median": statistics.median(s), "min": s[0], "max": s[-1], "n": len(s),
            "values": values}


# ---------------------------------------------------------------------------
# runs


def run_untraced(w: Workload, seed: int, seconds: float,
                 run_dir: Path, gate: Gate) -> dict:
    out_dir = run_dir / "cli"
    argv = w.argv(seed, out_dir)

    setup = []
    for i in range(SETUP_PROBES + 1):
        ex = spawn(setup_command(argv), run_dir / "setup")
        if gate.record([] if ex.code == 0 else [f"exit code {ex.code}"],
                       f"setup probe {i}") and i > 0:
            setup.append(ex.wall_s)

    walls, rss = [], []
    routes = 0
    self_check = None
    start = time.perf_counter()
    while len(walls) < MIN_RUNS or time.perf_counter() - start < seconds:
        if out_dir.exists():
            shutil.rmtree(out_dir)
        ex = spawn(cli_command(argv), run_dir / "log")
        routes = gate.check_cli(ex, out_dir, f"cli run {len(walls) + 1}")
        if routes is None:
            break  # the run is already wrong; more timing would not help
        if not walls:
            self_check = gate.self_check(out_dir)
            if not self_check:
                gate.problems.append("gate self-check: a corrupted aggregate.csv passed")
        walls.append(ex.wall_s)
        rss.append(ex.peak_rss_mb)
    if not (setup and walls):
        return {"metrics": {}}

    wall = statistics.median(walls)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "routes_per_s": routes / wall,
            "peak_rss_mb": statistics.median(rss),
        },
        "samples": {"setup_s": spread(setup), "wall_s": spread(walls),
                    "peak_rss_mb": spread(rss)},
        "gate_self_check": self_check,
    }


def run_child_json(cmd: list[str], log_dir: Path, gate: Gate, what: str):
    ex = spawn(cmd, log_dir)
    if ex.code != 0:
        gate.record([f"exit code {ex.code}"], what)
        return None
    return json.loads(ex.stdout.strip().splitlines()[-1])


def run_traced(w: Workload, seed: int, seconds: float,
               run_dir: Path, gate: Gate) -> dict:
    cli_dir = run_dir / "cli"
    cli_ex = spawn(cli_command(w.argv(seed, cli_dir)), run_dir / "log")
    gate.check_cli(cli_ex, cli_dir, "cli run")

    cycles = []
    start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
        n = len(cycles) + 1
        sweep = run_child_json(replay_command("sweep", w.argv(seed, run_dir / "sweep")),
                               run_dir / "log", gate, f"sweep {n}")
        replay_dir = run_dir / "replay"
        if replay_dir.exists():
            shutil.rmtree(replay_dir)
        replay = run_child_json(replay_command("trace", w.argv(seed, replay_dir)),
                                run_dir / "log", gate, f"replay {n}")
        if sweep is None or replay is None:
            break
        problems = gate.digest_problems(replay["digests"])
        if replay["tally_sha256"] != sweep["tally_sha256"]:
            problems.append("replay tallies differ from run_sweep's")
        reference = cycles[0]["counts"] if cycles else (
            gate.recorded["counters"] if gate.recorded is not None else None)
        if reference is not None:
            problems += [f"counter {k} = {replay['counts'].get(k)}, expected {v}"
                         for k, v in reference.items() if replay["counts"].get(k) != v]
        ok = gate.record(problems, f"replay {n}")
        cycles.append({**replay, "sweep": sweep})
        if not ok:
            break

    if not cycles:
        return {"metrics": {}, "cycles": 0}

    def median_of(get):
        return statistics.median(get(c) for c in cycles)

    counts = cycles[0]["counts"]
    metrics = {key: median_of(lambda c: c["times"][key]) for key in cycles[0]["times"]}
    metrics.update(counts)
    metrics["montecarlo.sweep_s"] = median_of(lambda c: c["sweep"]["montecarlo.sweep_s"])
    metrics["trace.replay_s"] = median_of(lambda c: c["trace.replay_s"])
    metrics["trace.overhead_s"] = median_of(
        lambda c: c["trace.replay_s"] - c["sweep"]["montecarlo.sweep_s"])
    metrics["potential.s_per_destination"] = (
        metrics["potential.tables_s"] / max(1, counts["potential.destinations"]))
    for m in METHODS:
        key = f"forwarding.{m}"
        hops = counts[f"{key}.hops"]
        metrics[f"{key}.hops_per_s"] = hops / metrics[f"{key}.route_s"]
        metrics[f"{key}.delivered_share"] = counts[f"{key}.delivered"] / counts[f"{key}.routes"]
        metrics[f"{key}.ttl_hop_share"] = counts[f"{key}.ttl_hops"] / hops if hops else 0.0
    return {"metrics": metrics, "cycles": len(cycles)}


# ---------------------------------------------------------------------------


def layer_shares(metrics: dict) -> dict:
    """Share of the traced pass (replay, aggregate, emit) spent in each
    layer's calls."""
    total = metrics["trace.replay_s"] + metrics["analysis.aggregate_s"] + metrics["cli.emit_s"]
    layers = {
        "topology": ("topology.draw_s", "topology.port_bits_s", "topology.labels_s"),
        "potential": ("potential.tables_s",),
        "forwarding": tuple(f"forwarding.{m}.route_s" for m in METHODS),
        "montecarlo": ("montecarlo.inputs_s",),
        "analysis": ("analysis.aggregate_s",),
        "cli": ("cli.emit_s",),
    }
    return {layer: sum(metrics[k] for k in keys) / total for layer, keys in layers.items()}


def check_recorded_seed(w: Workload, golden: dict, seed: int, run_dir: Path,
                        gate: Gate) -> str:
    """One untimed CLI run on a recorded seed, picked from the run's seed,
    so that every run compares bytes with the recording even when its own
    seed was never recorded."""
    other = sorted(golden, key=int)[seed % len(golden)]
    probe = Gate(w, golden[other])
    out_dir = run_dir / "recorded"
    ex = spawn(cli_command(w.argv(int(other), out_dir)), run_dir / "log")
    probe.check_cli(ex, out_dir, f"cli run on recorded seed {other}")
    gate.attempted += probe.attempted
    gate.failed += probe.failed
    gate.problems += probe.problems
    return other


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    w = WORKLOADS[name]
    golden = load_golden(name, w)
    recorded = golden.get(str(seed))
    gate = Gate(w, recorded)
    env = environment()
    run_dir = RUNS / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        checked = str(seed) if recorded else None
        if recorded is None and golden:
            checked = check_recorded_seed(w, golden, seed, run_dir, gate)
        body = (run_traced if trace else run_untraced)(w, seed, seconds, run_dir, gate)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env["host_probe_s_end"] = host_probe_s()
    section = "per_layer" if trace else "end_to_end"
    correct = not gate.problems and gate.attempted > 0
    metrics = {}
    for entry in spec[section]:
        value = body["metrics"].get(entry["name"])  # None when the run broke off
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print(f"== {name} seed {seed} {'traced' if trace else 'untraced'}: "
          f"bytes compared with the recording of seed {checked}; "
          f"failed_runs {gate.failed} of {gate.attempted} attempted")
    for problem in gate.problems:
        print(f"  FAIL {problem}")
    if body.get("gate_self_check"):
        print("  gate self-check: a copy of aggregate.csv with one byte changed failed the gate")
    for metric, v in metrics.items():
        print(f"  {metric} = {v['value']:.6g} {v['unit']}" if v["value"] is not None
              else f"  {metric} not measured")
    if trace and body["metrics"].get("trace.replay_s"):
        shares = layer_shares(body["metrics"])
        print("  share of traced pass: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    print("environment: " + json.dumps(env))

    RUNS.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "problems": gate.problems, **body}
    (RUNS / f"{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    return correct, gate.attempted, gate.failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still stops the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "torusflow" / "cli.py").is_file():
        print(f"bench: no torusflow source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
