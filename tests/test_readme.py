from __future__ import annotations

import re

from conftest import REPO_ROOT


def test_readme_python_example_runs(monkeypatch, capsys):
    # The README's API example, run as written from the repo root, prints
    # diffeq's k=1 fgdvs front: one line per point, in ascending area.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    areas = [int(line.split()[0]) for line in lines]
    powers = [float(line.split()[1]) for line in lines]
    assert areas == sorted(set(areas)) and powers == sorted(powers, reverse=True)
