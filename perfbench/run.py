"""Benchmark for xmodcoh: per-bundle time to an exact, checked answer.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 40 \
        --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from ``src/``.  Each case of the workload runs in its own fresh
process, one at a time: a closed loop with one client and no think time.
The processes are forked from a fork server (``case.py``) that has
imported ``xmodcoh.cli`` and run nothing, so every case starts with the
process-wide caches (``obstruction._h_cached``, ``_classify_circle_cocycle``,
``retraction._head_suite``) empty, as a fresh ``xmodcoh --bundle`` does;
repeating a case inside one process would time the caches instead of the
program.  Starting a server (interpreter start and imports) is timed on its
own as set-up.

With ``--trace 0`` the workload runs in passes until ``--seconds`` is
spent (at least one whole pass; the last may stop part-way).  A pass
starts a fresh server, one set-up sample, and runs every case once; each
case contributes the median of its samples.  A discarded warm-up server
comes first, and set-up-only servers are added at the end until there are
``MIN_SETUPS`` set-up samples, whose median is ``setup_s``.  With
``--trace 1`` one untraced pass is followed by one traced pass, and the
per-layer metrics come from the traced pass; the traced pass's ``wall_s``
minus the untraced one is reported as ``trace.overhead_s``.

Times are reported in reference seconds.  The speed of the shared machine
this was built on drifts with its neighbours' load, by up to a factor of
two over minutes, so runs made minutes apart differ by more than repeats
inside one run can average out.  A fixed calibration loop
(``_calibration_chunk``, ``CHUNKS`` times) therefore runs in this process
before the first and after every timed interval (a case, a server start),
and every time of the run is multiplied by ``REF_S`` over the mean
calibration time of the run: the time the run would have taken on a
machine on which the calibration loop keeps to ``REF_S``.  The program
never runs the calibration loop, so a change to the program moves the
scaled times by the same factor as the raw ones.  The unscaled metrics,
each calibration time and the scale are printed as well.

Every answer is checked (``workloads.py``).  A wrong answer aborts the run
with exit code 1 and ``"correct": false``.  A case that is refused
(resource-error), crashes, or hits its wall or address-space cap is a
failed case: it is charged its wall cap as run time, unscaled, and counted
in ``failed``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

# Address-space cap of one case process.  The seed's cases peak below
# 200 MB of resident memory; the cap turns a runaway allocation into a
# MemoryError instead of exhausting a shared machine.
CAP_MB = 2048

# Wall cap of starting a case server.
SETUP_CAP_S = 60.0

# Fewest set-up samples in an untraced run.
MIN_SETUPS = 5

# A calibration times CHUNKS chunks of the calibration loop, which by
# definition take REF_S reference seconds; about their median time on a
# 2-vCPU Xeon virtual machine shared with other tenants.
CHUNKS = 10
REF_S = 0.14

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("case_geomean_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB")]

CORRECT, REFUSED, CRASHED, CAPPED = "correct", "refused", "crashed", "capped"


class WrongAnswer(Exception):
    pass


@dataclass
class CaseRun:
    name: str
    outcome: str
    exit_code: int | None
    exception: str | None
    run_s: float            # time in cli.run(); the wall cap on failure
    cpu_s: float            # CPU in cli.run(), all threads; likewise
    rss_mb: float
    trace: dict = field(default_factory=dict)


def _calibration_chunk() -> None:
    # Interpreter work of the kind the program does (tuple keys, dicts,
    # integer arithmetic) and a small integer matrix product mod p.
    counts: dict = {}
    for k in range(35000):
        key = (k % 101, k % 7)
        counts[key] = counts.get(key, 0) + k * k
    a = np.arange(128 * 128, dtype=np.int64).reshape(128, 128) % 7
    (a @ a) % 7


class Speed:
    """The calibration loop's times along a run."""

    def __init__(self):
        self.times: list[float] = []

    @staticmethod
    def time() -> float:
        """Seconds for ``CHUNKS`` calibration chunks, right now."""
        t0 = time.perf_counter()
        for _ in range(CHUNKS):
            _calibration_chunk()
        return time.perf_counter() - t0

    def mark(self) -> float:
        """Time the calibration loop once more; that time."""
        self.times.append(self.time())
        return self.times[-1]

    def scale(self) -> float:
        """Reference seconds per second over the run: ``REF_S`` over the
        mean calibration time."""
        return REF_S / statistics.fmean(self.times)


def classify(timed_out: bool, exit_code: int | None, record: dict | None
             ) -> tuple[str, str | None]:
    """(outcome, exception type) of one case process.

    ``record`` is the record the case process returned, or None if it
    returned none (killed, or died before it could)."""
    if timed_out:
        return CAPPED, "TimeoutExpired"
    if record is None:
        return CRASHED, f"exit code {exit_code}"
    exc = record.get("exception")
    if exc == "MemoryError":
        return CAPPED, exc
    if exc is not None:
        return CRASHED, exc
    status = json.loads(record["report"])["status"]
    if status == "resource-error":
        return REFUSED, None
    return CORRECT, None


class CaseServer:
    """A fresh ``case.py`` fork server.  Starting one is one set-up sample;
    it then runs any number of cases, each in its own forked child.  Use it
    as a context manager: leaving it stops the server and waits for it."""

    def __init__(self, cap_mb: int = CAP_MB):
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "case.py"), str(ROOT), str(cap_mb)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            start_new_session=True)
        self.pending = b""
        self.child: int | None = None
        try:
            ready = self._reply(SETUP_CAP_S)
        except TimeoutError:
            ready = None
        if ready is None:
            self.close()
            raise RuntimeError("the case server did not start")
        self.setup_s = ready["ready"] - spawned
        self.setup_rss_mb = ready["maxrss_kb"] / 1024

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def _reply(self, timeout: float) -> dict | None:
        """The server's next JSON line; None if it ended first.  Raises
        TimeoutError at the deadline."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        chunks = [self.pending]
        while b"\n" not in chunks[-1]:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            chunks.append(chunk)
        line, self.pending = b"".join(chunks).split(b"\n", 1)
        return json.loads(line)

    def request(self, bundle: dict, trace: bool, cap_s: float
                ) -> tuple[bool, int | None, dict | None]:
        """(timed out, exit code, record) of one case.  A child that runs
        past ``cap_s`` is killed, and the server reaps it; if the server
        itself fails, it is stopped."""
        try:
            self.proc.stdin.write(json.dumps(
                {"bundle": bundle, "trace": int(trace)}).encode() + b"\n")
            self.proc.stdin.flush()
            started = self._reply(SETUP_CAP_S)
            if started is None:
                raise BrokenPipeError
            self.child = started["child"]
            try:
                return (False, *self._result(self._reply(cap_s)))
            except TimeoutError:
                os.kill(self.child, signal.SIGKILL)
                self._reply(SETUP_CAP_S)
                return True, None, None
        except (TimeoutError, BrokenPipeError):
            self.close()
            return False, self.proc.returncode, None

    @staticmethod
    def _result(reply: dict | None) -> tuple[int | None, dict | None]:
        if reply is None:
            raise BrokenPipeError
        return reply["exit_code"], reply["record"]

    def close(self) -> None:
        """Stop the server and wait for it: end its input, and kill its
        process group if it has not ended within ten seconds."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def run_case(server: CaseServer, case: workloads.Case, trace: bool
             ) -> CaseRun:
    timed_out, code, record = server.request(case.bundle, trace, case.cap_s)
    outcome, exception = classify(timed_out, code, record)
    if outcome == CRASHED:
        print(f"[perfbench] {case.name} crashed ({exception})",
              file=sys.stderr)
    if not trace and record is not None and record["wrapped"]:
        raise RuntimeError(f"{case.name}: {record['wrapped']} layer wrappers "
                           f"found in an untraced run")
    if outcome == CORRECT:
        text = record["report"]
        try:
            problem = case.check(json.loads(text), text)
        except (KeyError, TypeError, IndexError) as exc:
            problem = f"report lacks an expected field ({exc!r})"
        if problem:
            raise WrongAnswer(f"{case.name}: {problem}")
    ok = outcome == CORRECT
    # A fork child shares the server's pages; set-up RSS plus the child's
    # growth stands for the peak of a process that imported and ran alone.
    rss_mb = (server.setup_rss_mb
              + (record["maxrss_kb"] - record["start_rss_kb"]) / 1024
              if record else math.nan)
    return CaseRun(
        name=case.name, outcome=outcome, exit_code=code, exception=exception,
        run_s=record["run_s"] if ok else case.cap_s,
        cpu_s=record["run_cpu_s"] if ok else case.cap_s,
        rss_mb=rss_mb, trace=(record or {}).get("trace", {}))


def start_server(speed: Speed, setups: list[float]) -> CaseServer:
    """A fresh server; its set-up time goes to ``setups``."""
    server = CaseServer()
    setups.append(server.setup_s)
    print(f"set-up {server.setup_s:.3f}s calibration={speed.mark():.4f}s",
          flush=True)
    return server


def run_pass(cases, trace: bool, speed: Speed, runs: list[CaseRun],
             setups: list[float], until: float = math.inf) -> bool:
    """Every case once in a fresh server (a new one also after a case that
    stopped it), with a calibration mark after each.  Results are appended
    to ``runs`` as soon as known.  Stops before a case whose previous
    sample would end after the monotonic time ``until``; returns whether
    the pass ran every case."""
    last = {r.name: r.run_s for r in runs}
    server = start_server(speed, setups)
    try:
        for case in cases:
            if time.monotonic() + last.get(case.name, 0.0) > until:
                return False
            if not server.alive:
                server = start_server(speed, setups)
            r = run_case(server, case, trace)
            print(f"case {r.name}: {r.outcome} exit={r.exit_code} "
                  f"exception={r.exception or '-'} run={r.run_s:.3f}s "
                  f"cpu={r.cpu_s:.3f}s rss={r.rss_mb:.0f}MB "
                  f"calibration={speed.mark():.4f}s"
                  f"{' traced' if trace else ''}", flush=True)
            runs.append(r)
    finally:
        server.close()
    return True


def end_to_end(runs: list[CaseRun], setups: list[float], scale: float
               ) -> dict[str, float]:
    """Per-case medians over every sample of the case, then combined;
    times multiplied by ``scale``, except a failed case's wall cap."""
    by_case: dict[str, list[CaseRun]] = {}
    for r in runs:
        by_case.setdefault(r.name, []).append(r)

    def per_case(get):
        return [statistics.median(get(r) for r in samples)
                for samples in by_case.values()]

    def k(r):
        return scale if r.outcome == CORRECT else 1.0
    run_s = per_case(lambda r: r.run_s * k(r))
    rss = [m for m in per_case(lambda r: r.rss_mb) if not math.isnan(m)]
    return {
        "setup_s": statistics.median(setups) * scale,
        "wall_s": sum(run_s),
        "case_geomean_s": math.exp(statistics.fmean(
            math.log(max(t, 1e-9)) for t in run_s)),
        "cpu_s": sum(per_case(lambda r: r.cpu_s * k(r))),
        "peak_rss_mb": max(rss, default=math.nan),
    }


def per_layer(untraced: list[CaseRun], traced: list[CaseRun], scale: float
              ) -> dict[str, float]:
    """Sums over the traced cases; times multiplied by ``scale``."""
    units = dict(tracer.METRICS)
    totals = {name: 0 if unit == "count" else 0.0
              for name, unit in tracer.METRICS}
    for r in traced:
        for key, value in r.trace.items():
            if key in totals:
                totals[key] += value * scale if units[key] == "s" else value
    totals["trace.overhead_s"] = scale * (sum(r.run_s for r in traced)
                                          - sum(r.run_s for r in untraced))
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "xmodcoh" / "cli.py").is_file():
        print(f"[perfbench] no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    cases = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    start = time.monotonic()
    runs: list[CaseRun] = []
    setups: list[float] = []
    passes = 0
    try:
        # Warm-up: the first start compiles the sources and fills the
        # page cache; its set-up sample is dropped.
        CaseServer().close()
        speed = Speed()
        speed.mark()
        if args.trace:
            run_pass(cases, False, speed, runs, setups)
            untraced = runs[:]
            run_pass(cases, True, speed, runs, setups)
            traced = runs[len(untraced):]
            passes = 2
        else:
            # Passes until --seconds is spent, less the time owed to the
            # set-up-only servers; the last pass may stop part-way.
            complete = True
            while complete:
                owed = max(0, MIN_SETUPS - len(setups) - 1)
                per_setup = (statistics.median(setups) if setups else 0.0
                             ) + speed.times[-1]
                until = start + args.seconds - owed * per_setup
                if passes and time.monotonic() > until:
                    break
                complete = run_pass(cases, False, speed, runs, setups,
                                    until if passes else math.inf)
                passes += complete
            while len(setups) < MIN_SETUPS:
                start_server(speed, setups).close()
    except WrongAnswer as exc:
        print(f"[perfbench] wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(runs) + 1,
                          "failed": 0, "metrics": {}}))
        return 1

    failed = sum(r.outcome != CORRECT for r in runs)
    scale = speed.scale()
    if args.trace:
        values = per_layer(untraced, traced, scale)
        units = dict(tracer.METRICS)
        for name in workloads.TARGETS[args.workload]:
            if not values.get(name):
                print(f"[perfbench] warning: {name} is zero on "
                      f"{args.workload}, which it targets", file=sys.stderr)
    else:
        values = end_to_end(runs, setups, scale)
        units = dict(END_TO_END)
        raw = end_to_end(runs, setups, 1.0)
        print("unscaled: " + ", ".join(
            f"{name} = {raw[name]:.6g} {unit}" for name, unit in END_TO_END))
    print(f"scale {scale:.4f} reference s per s, from "
          f"{len(speed.times)} calibrations")
    print(f"workload {args.workload}: seed {args.seed}, {passes} whole "
          f"pass(es) of {len(cases)} cases, {len(runs)} case samples, "
          f"{len(setups)} set-ups, "
          f"fail_frac {failed}/{len(runs)}, "
          f"{time.monotonic() - start:.1f}s")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
