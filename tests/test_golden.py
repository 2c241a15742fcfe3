"""Every CLI command in ``tests/golden/`` writes the committed bytes, stderr
and exit code: "byte-identical" as a test.  The cases run in one child
process with one BLAS thread (``regen.run_isolated``), and every analyze
case once more with two.  ``python tests/golden/regen.py`` rewrites the
files; a change that moves one names the field and the reason."""

import importlib.util
import json
import pathlib

import pytest

from solvharm.lie_metric import algebra_from_dict, algebra_to_dict

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


def test_analyze_reports_do_not_read_the_thread_count(results):
    # the norms analyze sums over arrays (|Ric - c id|, and |R| and
    # |nabla R| with no H-type certificate) are summed by einsum, not by a
    # BLAS dot, whose threads would sum in an order set by their count
    names = [name for name, argv in regen.cases().items()
             if argv[0] == "analyze"]
    assert regen.run_isolated(2, names) == {name: results[name]
                                            for name in names}


def test_written_inputs_round_trip():
    # algebra_to_dict reads the rows off the tensor: loaded and written
    # again, each input regen.py writes with it keeps its committed bytes
    written = ({*regen.ALGEBRAS, *regen.ANALYZE_ONLY}
               - {*regen.BUILT, *regen.LARGE, *regen.MALFORMED})
    assert len(written) == 14
    for name in written:
        text = (regen.INPUTS / f"{name}.json").read_text()
        again = algebra_to_dict(algebra_from_dict(json.loads(text)))
        assert json.dumps(again) + "\n" == text, name
