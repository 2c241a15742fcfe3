"""Every demo, and the README's two-minute tour, runs to the end, so a
renamed or moved name cannot break one silently; the tour also prints
what its comments say.  The scripts run in-process: as subprocesses
most of their time would go to imports."""

import pathlib
import re
import runpy

import numpy as np
import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos")
               .glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    with np.printoptions():   # undoes the demo's set_printoptions
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def _readme_tour() -> str:
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md")
    tour = readme.read_text().split("## A two-minute tour", 1)[1]
    return tour.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_tour_prints_what_its_comments_say(capsys):
    # each `print(...)  # claim` line prints its claim up to the first
    # ": " or " = "; a claim "~x" is an order of magnitude
    code = _readme_tour()
    exec(compile(code, "README.md tour", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    claims = [re.split(r": | = ", line.split("#", 1)[1].strip(), 1)[0]
              for line in code.splitlines()
              if line.startswith("print(") and "#" in line]
    assert len(printed) == len(claims) >= 4
    for out, claim in zip(printed, claims):
        if claim.startswith("~"):
            ratio = abs(float(out)) / float(claim[1:])
            assert 0.1 <= ratio < 10.0, (out, claim)
        else:
            assert out == claim
