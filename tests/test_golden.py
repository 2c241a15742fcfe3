"""Every CLI command in ``tests/golden/`` writes the committed bytes, stderr
and exit code: "byte-identical" as a test.  The cases run in one child
process with one BLAS thread (``regen.run_isolated``), since report bytes
depend on the thread count.  ``python tests/golden/regen.py`` rewrites the
files; a change that moves one names the field and the reason."""

import importlib.util
import json
import pathlib

import pytest

REGEN = pathlib.Path(__file__).resolve().parent / "golden" / "regen.py"


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen", REGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _regen()


@pytest.fixture(scope="module")
def results():
    return regen.run_isolated()


def test_the_cases_are_the_committed_ones(results):
    manifest = json.loads(regen.MANIFEST.read_text())
    assert {name: {"argv": r["argv"], "exit": r["exit"]}
            for name, r in results.items()} == manifest
    written = {p.name for p in regen.EXPECTED.iterdir()}
    named = {path.name for name in manifest
             for path in regen.expected_files(name).values()}
    assert not written - named, "golden files of no case"


def test_every_stream_is_byte_identical(results):
    moved = []
    for name, result in results.items():
        for stream, path in regen.expected_files(name).items():
            want = path.read_bytes().decode() if path.exists() else None
            if (result[stream] or None) != want:
                moved.append(f"{name}.{stream}")
    assert not moved, f"golden outputs moved: {moved}"
