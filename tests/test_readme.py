"""The README's "Library use" example runs as written against the package's
top-level exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
