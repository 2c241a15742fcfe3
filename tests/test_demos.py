"""Every demo runs to the end, so a renamed or moved name cannot break
one silently.  The scripts run in-process: as subprocesses most of their
time would go to imports."""

import pathlib
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
