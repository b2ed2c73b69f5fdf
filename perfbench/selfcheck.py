"""Checks of the benchmark itself: the outcome classifier, the oracles,
span self time, where the layer wrappers go, that traced counters repeat
exactly, and the scaling to reference seconds.

    python3 perfbench/selfcheck.py

Takes about three minutes: it runs every workload's untraced pass once
and its traced pass twice, one sample per case.
Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import run
import tracer
import workloads

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def test_classifier() -> None:
    # A case that runs past its wall cap: its child is killed and reaped,
    # the case is capped, and the server goes on to the next case.
    slow = workloads.h_n("C4", "Z2-trivial", 4, [2], 1, 0.05)
    quick = workloads.h_n("C2xC2", "QZ-trivial", 3, [2, 2, 2], 1, 8)
    with run.CaseServer() as server:
        r = run.run_case(server, slow, trace=False)
        try:
            os.kill(server.child, 0)
            reaped = False
        except ProcessLookupError:
            reaped = True
        after = run.run_case(server, quick, trace=False).outcome
    check((r.outcome, r.exception, r.run_s) == (run.CAPPED, "TimeoutExpired",
                                                0.05)
          and reaped and after == run.CORRECT,
          f"running past the wall cap is capped and charged its cap, the "
          f"child is reaped and the server runs on: {r.outcome}, "
          f"{r.exception}, run_s {r.run_s}, reaped {reaped}, next {after}")

    # H^3(C4 x C4; Q/Z) = (Z/4)^3 does not fit in 1 GB of address space.
    big = workloads.h_n("C4xC4", "QZ-trivial", 3, [4, 4, 4], 1, 60)
    with run.CaseServer(cap_mb=1024) as server:
        r = run.run_case(server, big, trace=False)
    check((r.outcome, r.exception, r.exit_code)
          == (run.CAPPED, "MemoryError", 70),
          f"MemoryError under the address-space cap is capped, exit 70: "
          f"{r.outcome}, {r.exception}, exit {r.exit_code}")

    # A resource-error report; the refusal is charged its wall cap.
    refused = workloads.preset(run.ROOT, "budget-trip", 7.5)
    with run.CaseServer() as server:
        r = run.run_case(server, refused, trace=False)
    check((r.outcome, r.exit_code, r.run_s) == (run.REFUSED, 0, 7.5),
          f"resource-error is refused and charged its cap: "
          f"{r.outcome}, exit {r.exit_code}, run_s {r.run_s}")

    crashed = run.classify(False, 70, {"exception": "KeyError"})
    check(crashed == (run.CRASHED, "KeyError"),
          f"any other exception is a crash: {crashed}")


def test_oracles_can_fail() -> None:
    for name, make in workloads.WORKLOADS.items():
        for case in make(run.ROOT, 1):
            wrong = {"schema": 1, "task": case.bundle["task"],
                     "status": "ok", "result": {},
                     "provenance": {"wall_time_ms": 0}}
            try:
                problem = case.check(wrong, json.dumps(wrong))
            except (KeyError, TypeError, IndexError) as exc:
                problem = repr(exc)
            check(bool(problem), f"{name}/{case.name} rejects an empty "
                                 f"result: {problem}")
    check(workloads.h_integral_cyclic(7, 4) == [7]
          and workloads.h_integral_cyclic(7, 3) == [],
          "H^n(C_m; Z) closed form: Z/m in even degrees, 0 in odd")
    check(workloads.h_integral_elementary_2(2, 3) == [2] * 3
          and workloads.h_integral_elementary_2(3, 2) == [2]
          and workloads.h_integral_elementary_2(4, 2) == [2] * 3
          and workloads.h_integral_elementary_2(5, 2) == [2] * 2,
          "H^n((C2)^r; Z) closed form matches the known low degrees")


def test_self_time() -> None:
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]; each
    # child's bookkeeping adds 0.1 before and after its own interval.
    spans = [["root", 0.0, 0.0, 10.0, 10.0, -1],
             ["a", 0.9, 1.0, 4.0, 4.1, 0],
             ["b", 1.9, 2.0, 3.0, 3.1, 1],
             ["c", 4.9, 5.0, 6.0, 6.1, 0]]
    got = {k: round(v, 9) for k, v in tracer.self_times(spans).items()}
    check(got == {"root": 5.6, "a": 1.8, "b": 1.0, "c": 1.0},
          f"self time on the nested fixture: {got}")


def test_wrapper_placement() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from xmodcoh import cli, obstruction
    t = tracer.Tracer()
    check(tracer.wrapped_names() == [], "no wrapper before install")
    t.install()
    for name in ("xmodcoh.cli.cohomology", "xmodcoh.obstruction.cohomology",
                 "xmodcoh.cohomology.cohomology",
                 "xmodcoh.crossed.cohomology", "xmodcoh.cli.homology",
                 "xmodcoh.intlinalg.smith_normal_form",
                 "xmodcoh.modsnf.ModSolver.solve"):
        check(name in t.installed, f"wrapper installed at {name}")
    check(hasattr(cli.cohomology, tracer.MARK)
          and cli.cohomology is obstruction.cohomology,
          "cli and obstruction call the same wrapper")
    homes = {f"xmodcoh.{mod}.{attr}" for _, mod, attr, _ in tracer.LAYERS}
    check(homes <= set(t.installed),
          f"every listed function is wrapped at home: "
          f"{sorted(homes - set(t.installed))}")
    check(set(t.installed) <= set(tracer.wrapped_names()),
          "wrapped_names() finds every installed wrapper")


def test_traced_runs() -> None:
    """Untraced records carry no wrapper; every targeted metric is non-zero
    on its workload; two traced passes give identical counters."""
    counts = [n for n, unit in tracer.METRICS if unit == "count"]
    for name, make in workloads.WORKLOADS.items():
        cases = make(run.ROOT, 1)
        speed = run.Speed()
        speed.mark()

        def one_pass(trace):
            runs: list = []
            run.run_pass(cases, trace, speed, runs, [])
            return runs
        # run_case raises if an untraced case process holds a wrapper
        untraced = one_pass(False)
        first = run.per_layer(untraced, one_pass(True), 1.0)
        second = run.per_layer(untraced, one_pass(True), 1.0)
        zero = [m for m in workloads.TARGETS[name] if not first[m]]
        check(not zero, f"{name}: targeted per-layer metrics are non-zero "
                        f"{zero}")
        differ = {m: (first[m], second[m]) for m in counts
                  if first[m] != second[m]}
        check(not differ, f"{name}: counters repeat exactly {differ}")


def test_scaling() -> None:
    """Times are scaled by the run's calibration; the calibration loop
    slows down when the machine does."""
    ok = run.CaseRun("x", run.CORRECT, 0, None, 2.0, 1.0, 100.0)
    capped = run.CaseRun("y", run.CAPPED, None, "TimeoutExpired", 8.0, 8.0,
                         math.nan)
    values = run.end_to_end([ok, capped], [1.0, 3.0, 2.0], 0.5)
    check((values["wall_s"], values["cpu_s"], values["setup_s"])
          == (9.0, 8.5, 1.0),
          f"scaled times, with failed cases charged their cap: {values}")
    speed = run.Speed()
    speed.times += [0.1, 0.3]
    check(speed.scale() == run.REF_S / 0.2,
          f"scale is REF_S over the mean calibration: {speed.scale()}")

    alone = min(run.Speed.time() for _ in range(3))
    # A second process sharing this one's core halves its speed.
    mine = os.sched_getaffinity(0)
    hog = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        os.sched_setaffinity(hog.pid, {min(mine)})
        os.sched_setaffinity(0, {min(mine)})
        shared = min(run.Speed.time() for _ in range(3))
    finally:
        os.sched_setaffinity(0, mine)
        hog.kill()
        hog.wait()
    check(shared > 1.5 * alone,
          f"calibration sees a shared core: {alone:.3f}s alone, "
          f"{shared:.3f}s shared")


def main() -> int:
    test_self_time()
    test_oracles_can_fail()
    test_classifier()
    test_wrapper_placement()
    test_traced_runs()
    test_scaling()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
