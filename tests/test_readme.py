from __future__ import annotations

import re
import shlex

import pytest

from conftest import REPO_ROOT
from dvsched.cli import main

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")

# Each ```text block that starts with a `$ dvsched ...` command line.
CLI_BLOCKS = [
    block for block in re.findall(r"^```text\n(.*?)^```$", README, re.M | re.S)
    if block.startswith("$ dvsched ")
]


def test_readme_python_example_runs(monkeypatch, capsys):
    # The README's API example, run as written from the repo root, prints
    # diffeq's k=1 fgdvs front: one line per point, in ascending area.
    (code,) = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    areas = [int(line.split()[0]) for line in lines]
    powers = [float(line.split()[1]) for line in lines]
    assert areas == sorted(set(areas)) and powers == sorted(powers, reverse=True)


def masked(line: str) -> str:
    return re.sub(r"\d+\.\d+s\b", "<time>", line)


def test_readme_has_cli_examples():
    assert [b.split()[2] for b in CLI_BLOCKS] == ["pareto", "compare", "budget"]


@pytest.mark.parametrize("block", CLI_BLOCKS, ids=lambda b: b.split()[2])
def test_readme_cli_example_prints_what_it_shows(block, monkeypatch, capsys):
    # The command (its `\` continuations joined) run from the repo root
    # prints the block's lines, times masked; a `...` line stands for any
    # run of lines.
    command, *expected = block.replace("\\\n", " ").splitlines()
    monkeypatch.chdir(REPO_ROOT)
    assert main(shlex.split(command)[2:]) == 0
    pattern = "".join(
        r"(?:[^\n]*\n)*" if line.strip() == "..." else re.escape(masked(line)) + "\n"
        for line in expected
    )
    printed = "".join(masked(line) + "\n" for line in capsys.readouterr().out.splitlines())
    assert re.fullmatch(pattern, printed), printed
