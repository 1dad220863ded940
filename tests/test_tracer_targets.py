"""The traced benchmark (``perfbench/tracer.py``) wraps brwmom's functions
by module and attribute path.  Deleting or renaming a traced name would
break ``perfbench/run.py --trace 1``; these checks make it fail here."""

import importlib

import tracer


def test_every_target_resolves():
    # tracer.install reads a dotted target's last part from its owner's
    # own __dict__, so an attribute the owner only inherits would raise
    # KeyError there: hasattr alone would let it through.
    for module_name, path, *_ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            assert hasattr(owner, part), (module_name, path)
            owner = getattr(owner, part)
        if outer:
            assert attr in vars(owner), (module_name, path)
        assert callable(getattr(owner, attr, None)), (module_name, path)


def test_symbolic_cache_is_observable():
    # The tracer reads the miss count of mom_symbolic's lru_cache.
    from brwmom import engine
    assert engine.mom_symbolic.cache_info().misses >= 0
