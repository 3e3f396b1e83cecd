"""The package's top-level exports: their pinned set, and the README's
"Library use" example, which runs as written against them."""

import re
import types
from pathlib import Path

import torusflow

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = {
    "AggregateMetrics", "Direction", "EngineConfig",
    "ExperimentConfig", "FailureMode", "FailureScenario", "HopKind", "HopRecord",
    "Method", "MethodTally", "PacketOutcome", "ReplicateResult", "TorusTopology",
    "Verdict", "aggregate_sweep", "apply_bond_failures",
    "apply_site_failures", "build_torus", "canonical_link", "default_engine_config",
    "diameter", "is_node_alive", "largest_component_fraction", "neighbor",
    "route_packet", "run_sweep", "seed_for",
}


def test_public_names_are_pinned():
    """Adding or removing an export is a deliberate change to this set."""
    public = {
        name for name in dir(torusflow)
        if not name.startswith("__")
        and not isinstance(getattr(torusflow, name), types.ModuleType)
    }
    assert public == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 27


def test_library_use_example_runs(capsys):
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert blocks, "no python block under 'Library use'"
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("Verdict.")
    # 3 failure probabilities x 4 methods, one line per aggregated cell
    methods = {"NF", "LFA", "RF_CF", "RF_LF"}
    assert sum(line.split()[0] in methods for line in lines) == 12
