"""Every function the benchmark tracer wraps exists where Tracer.install
looks it up (owner.__dict__[attr]).  The workflow's benchmark smoke installs
every wrapper in its traced `cyclotomic` and `modules` passes (bench/run.py
--trace 1), so a renamed or deleted library name fails there too; this test
fails first and names the target."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _unresolved(layers):
    missing = []
    for targets in layers.values():
        for target in targets:
            owner, attr = tracer._resolve(target)
            if not callable(owner.__dict__.get(attr)):
                missing.append(target)
    return missing


def test_every_traced_target_resolves():
    assert _unresolved(tracer.SPAN_LAYERS) == []
    assert _unresolved(tracer.COUNTED_LAYERS) == []


def test_a_missing_target_is_reported():
    # a method inherited rather than defined on the class is not in its __dict__
    layers = {"x": ["senlab.gamma:rho_bound", "senlab.gamma:no_such_function",
                    "senlab.gamma:RhoReport.__init__"]}
    assert _unresolved(layers) == ["senlab.gamma:no_such_function",
                                   "senlab.gamma:RhoReport.__init__"]
