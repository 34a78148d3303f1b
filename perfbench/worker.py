"""One pass of an in-process workload in a fresh interpreter.

    python worker.py SPEC RESULT [SPANS]

It imports kzero (and installs the tracer when SPANS is given), prints
`ready`, and waits for `go` on stdin, so the parent times set-up and the pass
apart.  It then runs every argv of SPEC through `kzero.cli.run` one after
another, each under the per-operation deadline, and writes latencies, exit
codes and stdout to RESULT.  Nothing is checked here; the parent checks.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
import time


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def run_pass(spec: dict, result_path: str, spans_path: str | None) -> int:
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from kzero import cli

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = spec["deadline"]
    clock = time.perf_counter
    records = []
    t_pass = clock()
    for i, argv in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op_id = i
        buf = io.StringIO()
        code = err = None
        t0 = clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                _, code = cli.run(argv, stdout=buf)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            err = f"missed the {deadline} s deadline"
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # one failed operation must not end the pass
            err = f"{type(exc).__name__}: {exc}"
        records.append([clock() - t0, code, err, buf.getvalue()])
    wall = clock() - t_pass
    result = {
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    return run_pass(spec, argv[1], argv[2] if len(argv) > 2 else None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
