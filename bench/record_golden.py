"""Record bench/golden.jsonl: output digests and exact counters by seed.

    python3 bench/record_golden.py --seeds 0-31 [--workload NAME ...]

Run it only on a tree whose outputs are known to be right, such as the
tree the benchmark was defined on: bench/run.py fails every later run whose
outputs or counters differ from what is recorded here. For each workload
and seed this runs the CLI once and the layer-by-layer replay once, requires
the two to write the same bytes, and stores the CLI's SHA-256 digests and
the replay's counters, one JSON line per workload and seed. Lines of other
workloads and seeds are kept; lines recorded with other arguments for a
re-recorded workload are dropped.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(name: str, seed: int) -> dict:
    w = run.WORKLOADS[name]
    work = run.RUNS / f"record-{name}-s{seed}"
    gate = run.Gate(w, None)
    try:
        ex = run.spawn(run.cli_command(w.argv(seed, work / "cli")), work / "log")
        gate.check_cli(ex, work / "cli", "cli run")
        replay = run.run_child_json(
            run.replay_command("trace", w.argv(seed, work / "replay")),
            work / "log", gate, "replay")
        if replay is not None:
            gate.record(gate.digest_problems(replay["digests"]), "replay")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if gate.problems:
        raise SystemExit(f"{name} seed {seed}: " + "; ".join(gate.problems))
    return {"workload": name, "seed": seed, "argv": run.recorded_argv(w),
            "digests": dict(gate.first), "counters": replay["counts"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-31")
    ap.add_argument("--workload", action="append", choices=list(run.WORKLOADS))
    args = ap.parse_args(argv)

    entries = run.read_golden()
    for name in args.workload or list(run.WORKLOADS):
        argv0 = run.recorded_argv(run.WORKLOADS[name])
        entries = [e for e in entries if e["workload"] != name
                   or (e["argv"] == argv0 and e["seed"] not in args.seeds)]
        for seed in args.seeds:
            entries.append(record(name, seed))
            print(f"{name} seed {seed}: {entries[-1]['digests']}", file=sys.stderr)
        entries.sort(key=lambda e: (e["workload"], e["seed"]))
        run.GOLDEN.write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
