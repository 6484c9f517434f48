"""The README's library example and command lines run as written."""
import contextlib
import io
import re
import shlex
from pathlib import Path

from nashlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

#: Exit code of each ``nashlab`` line in the README, as its comment states.
COMMAND_EXIT_CODES = {
    "nashlab nash example:nobile --char 0": 0,
    "nashlab nash example:nobile --char 2": 2,
    "nashlab nash example:a1 --char 0 --normalized": 0,
    "nashlab nash example:cdll --char 0 --max-depth 4": 2,
    "nashlab describe example:cyclic_quotient:3,7 --saturate --pretty": 0,
    "nashlab sweep cyclic_quotient --b-max 12 --normalized --format csv": 0,
}


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_library_example_runs():
    blocks = _blocks("python")
    assert len(blocks) == 1
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert len(namespace["charts"]) == 11
    tree = namespace["tree"]
    assert tree.verdict_summary == "CounterexampleCycle"
    assert len(tree.nodes) == 250
    assert out.getvalue().splitlines()[0] == "CounterexampleCycle"
    assert len(namespace["expansions"]) == 6


def test_readme_command_lines_exit_as_stated():
    lines = [
        line
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("nashlab ")
    ]
    assert sorted(lines) == sorted(COMMAND_EXIT_CODES)
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(shlex.split(line)[1:])
        assert code == COMMAND_EXIT_CODES[line], line
        assert out.getvalue()
