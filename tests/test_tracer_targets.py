"""The traced benchmark (``perfbench/tracer.py``) wraps brwmom's functions
by module and attribute path.  Deleting or renaming a traced name would
break ``perfbench/run.py --trace 1``; these checks make it fail here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for module_name, path, *_ in load_tracer().TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), (module_name, path)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, path)


def test_symbolic_cache_is_observable():
    # The tracer reads the miss count of mom_symbolic's lru_cache.
    from brwmom import engine
    assert engine.mom_symbolic.cache_info().misses >= 0
