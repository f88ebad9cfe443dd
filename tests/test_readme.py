"""README.md stays true: its library snippet and its worked examples run as stated."""

import ast
import json
import re
import shlex
from pathlib import Path

from sepkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(after: str, fence: str) -> str:
    """The first ```fence code block that follows the text ``after``."""
    start = README.index(after)
    return re.search(rf"```{fence}\n(.*?)```", README[start:], re.S).group(1)


def test_library_block_gives_the_values_its_comments_state():
    block = _block("## Library", "python")
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            value = ast.literal_eval(comment.split()[0].rstrip(":"))
        except (IndexError, ValueError, SyntaxError):
            continue  # no comment, or one that states no value
        stated.append(value)
        assert eval(code, namespace) == value, line
    assert stated == [True, 2]


def test_worked_examples_run_as_described(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    commands = [shlex.split(line) for line in _block("Worked examples", "").splitlines()]
    assert len(commands) == 4 and all(argv[0] == "sepkit" for argv in commands)
    fidelity = float(re.search(r"raise it to (\d\.\d+)", README).group(1))
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if argv[1] == "distill":
            doc = json.loads(out)
            assert doc["pair"] == ["B", "C"]
            assert doc["m_used"] == 2  # "two copies"
            assert round(doc["pair_fidelity"], 4) == fidelity
