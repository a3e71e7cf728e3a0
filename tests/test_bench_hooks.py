"""Every name the benchmark tracer patches still exists in rht.

``bench/tracer.py`` instruments rht from outside, by module and attribute
path, so a renamed or deleted function would leave its span or counter
silently empty.  The tracer is read by path and run in a fresh namespace:
nothing is imported from ``bench/`` as a package and nothing is written there.
"""

import importlib
import types
from pathlib import Path

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
