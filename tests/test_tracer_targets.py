"""The benchmark's span tracer wraps package functions by name: each of
them must exist, or a traced benchmark run fails after the untraced one."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer_module()
    targets = [*tracer.SPANS, *tracer.COUNTERS]
    assert targets
    for module_name, attr in targets:
        module = importlib.import_module(f"solvharm.{module_name}")
        owner = module
        if "." in attr:   # methods are looked up in the class dict
            cls_name, attr = attr.split(".")
            owner = getattr(module, cls_name)
            assert attr in vars(owner), f"{module_name}.{cls_name}.{attr}"
        assert callable(getattr(owner, attr)), f"{module_name}.{attr}"
