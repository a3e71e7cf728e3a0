"""Every name the benchmark tracer patches still exists in rht, and a traced
run still reaches the layers the benchmark requires.

``bench/tracer.py`` instruments rht from outside, by module and attribute
path, so a renamed or deleted function would leave its span or counter
silently empty.  The tracer is read by path and run in a fresh namespace:
nothing is imported from ``bench/`` as a package and nothing is written there.
"""

import importlib
import types
from pathlib import Path

# the tracer patches every rht module it names, so each must be imported
from rht import (cli, models, presentations, report,  # noqa: F401
                 scalability, verify)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    code = compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec")
    exec(code, module.__dict__)
    return module


def test_every_traced_attribute_path_resolves():
    tracer = load_tracer()
    hooks = [(name, module, path)
             for name, module, path, *_ in tracer.SPANS + tracer.COUNTERS]
    assert len(hooks) == len(tracer.SPANS) + len(tracer.COUNTERS) > 0
    for name, module, path in hooks:
        obj = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(obj, part), f"{name}: {module}.{path} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{name}: {module}.{path} is not callable"


def test_traced_run_records_calls_on_every_linalg_entry_point():
    """Small models, a pi decision and a battery that solves dx = y, run
    under the tracer: no hook raises (a generator handed to ``rref`` would
    break its statistics hook), and every elimination entry point the
    benchmark requires still records calls."""
    tracer = load_tracer().Tracer()
    tracer.install()
    tracer.active = True
    try:
        ring = presentations.wedge_of_spheres_ring([2, 2])
        models.minimal_model(ring, 5)
        models.bigraded_model(ring, 5)
        scalability.decide_pi(3, 2)
        battery = verify.BATTERIES["massey"]()
    finally:
        tracer.active = False
        tracer.uninstall()
    assert battery.passed, battery.detail
    calls = {name: row[0] for name, row in tracer.layer_totals().items()}
    for name in ("linalg.rref", "linalg.reduce_against",
                 "linalg.kernel_of_columns", "linalg.solve_columns",
                 "models.minimal_model", "models.bigraded_model",
                 "homotopy.massey"):
        assert calls.get(name, 0) > 0, f"{name} recorded no calls"
    stats = tracer.stats["linalg.rref"]
    assert stats["rows"] > 0 and stats["pivots"] > 0
