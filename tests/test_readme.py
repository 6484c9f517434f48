"""The README's library example runs as written, at a smaller depth."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert "max_depth=4" in code
    code = code.replace("max_depth=4", "max_depth=2")  # depth 2 keeps this to seconds
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["charts"]) == 11
    tree = namespace["tree"]
    assert tree.verdict_summary == "CounterexampleCycle"
    assert len(tree.nodes) == 72
    assert out.getvalue().splitlines()[0] == "CounterexampleCycle"
