"""The benchmark's tracer wraps program functions by name from outside the
program; every name it lists must still resolve, or a traced run fails."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from xmodcoh import obstruction

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


# The per-layer metrics perfbench/selfcheck.py requires on the obstruction
# workload that the unitary cases reach.
UNITARY_TARGETS = ("unitary.invariants_calls", "unitary.inequalities_s",
                   "unitary.decompose_calls")

TRACED_RUN = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from xmodcoh import cli
tracer = tracing.Tracer()
tracer.install()
for bundle in (
        {"schema": 1, "task": "unitary-check", "max_dim": 3,
         "ineq_trials": 20, "pair_trials": 4, "member_trials": 4,
         "sandwich_trials": 4, "conj_trials": 2, "seed": 1},
        {"schema": 1, "task": "decompose",
         "random": {"paths": 2, "max_dim": 3}, "seed": 1}):
    assert tracer.call_root(cli.run, bundle)["status"] == "ok"
print(json.dumps(tracer.summary({"import_s": 0.0})))
"""


def test_a_traced_unitary_run_reaches_the_unitary_layers():
    probe = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(TRACER)],
        capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    summary = json.loads(probe.stdout)
    for metric in UNITARY_TARGETS:
        assert summary.get(metric, 0) > 0, metric
