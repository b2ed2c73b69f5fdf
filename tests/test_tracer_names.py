"""The benchmark's tracer wraps program functions by name from outside the
program; every name it lists must still resolve, or a traced run fails."""

import importlib
import importlib.util
from pathlib import Path

from xmodcoh import obstruction

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py loaded by path, without installing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves_in_its_module():
    tracer = load_tracer()
    assert tracer.LAYERS
    for layer, modname, attr, _ in tracer.LAYERS:
        home = importlib.import_module(f"xmodcoh.{modname}")
        owner, name = tracer._resolve(home, attr)
        assert callable(getattr(owner, name, None)), \
            f"{layer}: xmodcoh.{modname}.{attr} is gone"


def test_the_cache_counters_the_tracer_reads_exist():
    info = obstruction._h_cached.cache_info()
    assert info.hits >= 0 and info.misses >= 0
