"""Fork server for the benchmark's case processes.

    python3 perfbench/case.py <repo-root> <address-space-cap-mb>

Starts as a fresh interpreter, imports ``xmodcoh.cli`` and prints one JSON
line: the monotonic time at which it was ready (CLOCK_MONOTONIC is
system-wide on Linux, so the parent subtracts its own spawn time to get
set-up time), the import time and the peak RSS of set-up.

Then, for every request line on stdin, ``{"bundle": {...}, "trace": 0|1}``,
it forks one child that runs the bundle through ``cli.run`` and
``cli.serialize_report`` the way ``xmodcoh --bundle`` does after its
imports, prints ``{"child": <pid>}`` (so that the parent can kill a child
that runs past its wall cap), waits for the child and prints
``{"exit_code": <int>, "record": {...} | null}``.  The
server itself never runs a bundle, so every child starts with the
process-wide caches (``obstruction._h_cached``,
``_classify_circle_cocycle``, ``retraction._head_suite``) empty, as a fresh
``xmodcoh --bundle`` process does; forking skips only the interpreter start
and the imports, which set-up time measures on its own.

The child's record carries the wall and CPU time spent in ``cli.run``, the
time in ``cli.serialize_report``, the serialized report, the exception type
if ``run`` raised, the child's peak RSS and how many layer wrappers are
installed.  With trace 1 the child installs the wrappers of ``tracer.py``
before it runs and the record also carries the span summary.  The address-
space cap applies to each child.
"""

import json
import os
import resource
import sys
import time
import traceback

EXIT_EXCEPTION = 70


def _cpu() -> float:
    """User plus system CPU of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_bundle(cli, bundle: dict, trace: bool, import_s: float) -> dict:
    """Run one bundle in this process and return its record."""
    import tracer as tracing
    record = {"import_s": import_s, "exception": None}
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        c0 = _cpu()
        t0 = time.perf_counter()
        report = (tracer.call_root(cli.run, bundle) if tracer
                  else cli.run(bundle))
        t1 = time.perf_counter()
        c1 = _cpu()
        text = cli.serialize_report(report)
        t2 = time.perf_counter()
    except Exception as exc:  # the case outcome is the exception type
        record["exception"] = type(exc).__name__
    else:
        record.update(run_s=t1 - t0, run_cpu_s=c1 - c0,
                      serialize_s=t2 - t1, report=text)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["wrapped"] = len(tracing.wrapped_names())
    if tracer is not None:
        record["trace"] = tracer.summary(record)
    return record


def serve_one(cli, request: dict, cap: int, import_s: float) -> dict:
    """Fork a child for one request, wait for it and return the reply."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            start_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            os.close(rfd)
            os.dup2(2, 1)           # program output must not reach the reply
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            record = run_bundle(cli, request["bundle"],
                                bool(request["trace"]), import_s)
            record["start_rss_kb"] = start_rss_kb
            with os.fdopen(wfd, "w") as out:
                out.write(json.dumps(record))
            code = EXIT_EXCEPTION if record["exception"] else 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    print(json.dumps({"child": pid}), flush=True)
    with os.fdopen(rfd) as inp:
        text = inp.read()
    _, status = os.waitpid(pid, 0)
    try:
        record = json.loads(text) if text else None
    except json.JSONDecodeError:
        record = None
    return {"exit_code": os.waitstatus_to_exitcode(status), "record": record}


def main() -> int:
    root, cap_mb = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, f"{root}/src")

    t0 = time.perf_counter()
    from xmodcoh import cli
    import_s = time.perf_counter() - t0
    import tracer  # noqa: F401  (the children use it; it wraps nothing)
    ready = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"ready": ready, "import_s": import_s,
                      "maxrss_kb": usage.ru_maxrss}), flush=True)

    cap = cap_mb * 1024 * 1024
    for line in sys.stdin:
        reply = serve_one(cli, json.loads(line), cap, import_s)
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
