"""kzero benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a kzero checkout; it needs nothing but the standard
library and the checkout.  Workloads (see workloads.py for why each exists):
algebra, traces_cold, cli_startup.

Load model: a closed loop with one client in one process.  Each operation is
one CLI request and starts only after the previous one has finished.  The
in-process workloads call `kzero.cli.run(argv, stdout=buffer)` in a worker
interpreter; cli_startup starts `python -m kzero` children one at a time.
The two limit probes of algebra run side by side after the passes, untimed.
Every pass over a workload's operations runs in a fresh interpreter, so the
program's in-memory caches start empty as they do in a CLI process.  Passes
repeat while the next one is predicted to end within --seconds, so a run
measures at most --seconds, or one pass where a pass takes longer; a traced
run measures at least one untraced and one traced pass.  Set-up (inputs,
cache file, interpreter start and import) is timed apart from the passes, at
least three times per run.

Every operation's output is checked.  `--trace 1` runs untraced and traced
passes alternately and reports per-layer metrics from the traced ones, plus
`trace_overhead_s`.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a record of the run also goes to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PY = sys.executable
MIN_SETUPS = 3
PASS_TIMEOUT_S = 150.0
IMPORT_SAMPLES = 5

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("pass_ratio", "1"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
_CALLS = ("primes.sieve", "primes.is_prime", "quadfield.is_squarefree", "quadfield.arith",
          "contfrac.expand", "coherence.module_equal", "elliptic.count_points_fp",
          "elliptic.count_points_fp2_enumeration", "elliptic.hecke_ap_cm")
_SELF = ("primes.sieve", "primes.is_prime", "quadfield.is_squarefree", "quadfield.arith",
         "quadfield.fundamental_unit", "contfrac.expand", "bratteli.effros_shen",
         "bratteli.stationary_k0", "bratteli.pf_data", "bratteli.shift_action_check",
         "coherence.module_equal", "coherence.effros_shen_coherence",
         "elliptic.count_points_fp", "elliptic.count_points_fp2_enumeration",
         "elliptic.hecke_ap_cm", "elliptic.tonelli", "elliptic.cornacchia",
         "lfunction.local_factor_match", "lfunction.proposition3_check", "lfunction.fold",
         "cli.run")
PER_LAYER = (
    *((f"{n}.calls", "count") for n in _CALLS),
    *((f"{n}.self_s", "s") for n in _SELF),
    ("groupalg.self_s", "s"),
    ("contfrac.steps", "count"),
    ("bratteli.deadline_misses", "count"),
    ("elliptic.chi_tables_built", "count"),
    ("elliptic.apcache.load_s", "s"),
    ("elliptic.apcache.rows_loaded", "count"),
    ("elliptic.apcache.lookups", "count"),
    ("elliptic.apcache.hit_ratio", "1"),
    ("elliptic.apcache.flush_s", "s"),
    ("lfunction.euler_factors", "count"),
    ("cli.interp_start_s", "s"),
    ("cli.import_s", "s"),
    ("cli.numpy_import_s", "s"),
    ("trace_overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark itself could not run the workload."""


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[int], list]
    in_process: bool = True
    probes: bool = False
    warm_check: bool = False


WORKLOADS = {
    "algebra": Workload("algebra", wl.algebra_ops, probes=True),
    "traces_cold": Workload("traces_cold", wl.traces_ops, warm_check=True),
    "cli_startup": Workload("cli_startup", wl.cli_startup_ops, in_process=False),
}


# -- child processes ---------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # absolute, so a child's cwd does not matter
    env.pop("KZERO_AP_CACHE", None)
    return env


_live: list[subprocess.Popen] = []


def _spawn(argv: list[str], cwd: Path, **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), **kwargs)
    _live.append(proc)
    return proc


def stop_children() -> None:
    """Kill and reap every child still running."""
    while _live:
        proc = _live.pop()
        if proc.returncode is None:
            proc.kill()
            proc.wait()


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int
    killed: bool


def run_child(argv: list[str], cwd: Path, timeout: float) -> Child:
    """Run one child to completion or kill it at `timeout`; time it and read its peak RSS."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = _spawn(argv, cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        fd = os.pidfd_open(proc.pid)
        try:
            killed = not select.select([fd], [], [], timeout)[0]
            if killed:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _live.remove(proc)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(), wall,
                     usage.ru_maxrss, killed)


# -- set-up and passes -------------------------------------------------------------


@dataclass
class Prepared:
    ops: list
    dir: Path
    cache: Path
    setup_s: float
    worker: Optional[subprocess.Popen] = None


@dataclass
class Pass:
    traced: bool
    wall_s: float
    latencies: list
    codes: list
    errors: list
    outputs: list
    rss_mb: float
    spans: list = field(default_factory=list)


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _argvs(prep: Prepared) -> list[list[str]]:
    return [op["argv"] + ["--cache", str(prep.cache)] for op in prep.ops]


def set_up(w: Workload, seed: int, pass_dir: Path, traced: bool, cache_from: Optional[Path] = None) -> Prepared:
    """Generate the inputs, prepare the cache file, and start the interpreter that will run them."""
    t0 = time.perf_counter()
    ops = w.make_ops(seed)
    pass_dir.mkdir(parents=True)
    prep = Prepared(ops, pass_dir, pass_dir / "apcache.tsv", 0.0)
    if cache_from is not None:
        shutil.copyfile(cache_from, prep.cache)
    if w.in_process:
        _write_json(pass_dir / "spec.json", {"ops": _argvs(prep), "deadline": wl.OP_DEADLINE_S})
        cmd = [PY, str(BENCH / "worker.py"), "spec.json", "result.json"]
        if traced:
            cmd.append("spans")
        with open(pass_dir / "worker.err", "wb") as err:
            prep.worker = _spawn(cmd, pass_dir, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
        if prep.worker.stdout.readline().strip() != b"ready":
            prep.worker.wait()
            raise BenchError(f"worker did not start: {(pass_dir / 'worker.err').read_text()[-500:]}")
    else:
        # compile kzero's bytecode cache so that no timed child pays for it
        child = run_child([PY, "-c", "import kzero.cli"], pass_dir, PASS_TIMEOUT_S)
        if child.code != 0:
            raise BenchError(f"import kzero.cli failed: {child.stderr.strip()[-500:]}")
    prep.setup_s = time.perf_counter() - t0
    return prep


def discard(prep: Prepared) -> None:
    if prep.worker is not None:
        prep.worker.stdin.close()  # the worker exits without running anything
        prep.worker.wait(timeout=PASS_TIMEOUT_S)
        prep.worker.stdout.close()
        _live.remove(prep.worker)


def execute(w: Workload, prep: Prepared, traced: bool) -> Pass:
    if w.in_process:
        worker = prep.worker
        worker.stdin.write(b"go\n")
        worker.stdin.close()
        try:
            worker.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass of {w.name} ran longer than {PASS_TIMEOUT_S} s") from None
        _live.remove(worker)
        worker.stdout.close()
        if worker.returncode != 0:
            raise BenchError(f"worker failed: {(prep.dir / 'worker.err').read_text()[-500:]}")
        with open(prep.dir / "result.json", encoding="utf-8") as fh:
            res = json.load(fh)
        lat, codes, errs, outs = (list(col) for col in zip(*res["records"]))
        return Pass(traced, res["wall_s"], lat, codes, errs, outs, res["maxrss_kb"] / 1024,
                    [prep.dir / "spans"] if traced else [])
    lat, codes, errs, outs, rss, spans = [], [], [], [], 0, []
    t0 = time.perf_counter()
    for i, argv in enumerate(_argvs(prep)):
        if traced:
            spans.append(prep.dir / f"spans-{i}")
            cmd = [PY, str(BENCH / "tracechild.py"), str(spans[-1]), str(i), *argv]
        else:
            cmd = [PY, "-m", "kzero", *argv]
        child = run_child(cmd, prep.dir, wl.OP_DEADLINE_S)
        lat.append(child.wall_s)
        codes.append(child.code)
        errs.append(f"missed the {wl.OP_DEADLINE_S} s deadline" if child.killed else None)
        outs.append(child.stdout)
        rss = max(rss, child.maxrss_kb)
    wall = time.perf_counter() - t0
    return Pass(traced, wall, lat, codes, errs, outs, rss / 1024, spans)


# -- checks ------------------------------------------------------------------------


def check_pass(prep: Prepared, p: Pass, reference: Optional[list], label: str) -> list[str]:
    """One line per failed operation: a failed exit/status/output check or a stdout difference."""
    failures = []
    seen: dict[tuple, str] = {}
    for i, op in enumerate(prep.ops):
        reason = p.errors[i] or wl.check_output(op, p.codes[i], p.outputs[i])
        key = tuple(op["argv"])
        if reason is None and seen.setdefault(key, p.outputs[i]) != p.outputs[i]:
            reason = "stdout differs between runs of the same command"
        if reason is None and reference is not None and p.outputs[i] != reference[i]:
            reason = f"stdout differs from the first untraced pass ({label})"
        if reason is not None:
            failures.append(f"{label}: {' '.join(op['argv'])}: {reason}")
    return failures


def run_probes(work: Path, deadline: float = wl.OP_DEADLINE_S) -> list[dict]:
    """The limit probes, each in a child killed at the deadline; the two run side by side."""

    def probe(i: int, argv: tuple) -> dict:
        cwd = work / f"probe{i}"
        cwd.mkdir(exist_ok=True)
        child = run_child([PY, "-m", "kzero", *argv, "--cache", str(cwd / "apcache.tsv")], cwd, deadline)
        if child.killed:
            outcome = f"killed at the {deadline} s deadline"
        elif child.code == 0 and child.stdout.endswith("# status pass\n"):
            outcome = "passed"
        else:
            outcome = f"exit {child.code}: {child.stderr.strip()[-200:]}"
        return {"argv": " ".join(argv), "outcome": outcome, "wall_s": child.wall_s,
                "failed": outcome != "passed"}

    with ThreadPoolExecutor(max_workers=len(wl.PROBES)) as pool:
        return list(pool.map(probe, range(len(wl.PROBES)), wl.PROBES))


def fail_ratio(failures: list[str], attempted: int, probes: list[dict]) -> tuple[int, int, float]:
    """Failed and attempted operations with the limit probes counted in, and their ratio."""
    failed = len(failures) + sum(pr["failed"] for pr in probes)
    total = attempted + len(probes)
    return failed, total, failed / total


def numpy_version(work: Path) -> Optional[str]:
    child = run_child([PY, "-c", "import numpy; print(numpy.__version__)"], work, PASS_TIMEOUT_S)
    return child.stdout.strip() if child.code == 0 else None


def snapshot() -> dict[str, str]:
    """Hash of every file in the checkout except what running kzero or this benchmark writes."""
    skip = {".git", "__pycache__", ".perfbench", ".bench_build"}
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            path = Path(dirpath) / name
            files[str(path.relative_to(ROOT))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return files


# -- metrics -----------------------------------------------------------------------


def layer_metrics(p: Pass) -> dict[str, float]:
    import tracer

    totals: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for path in p.spans:
        t, c = tracer.load_totals(str(path))
        for name, v in t.items():
            acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += v["calls"]
            acc["self_s"] += v["self_s"]
        for name, v in c.items():
            counters[name] = counters.get(name, 0) + v

    def get(name: str, key: str):
        return totals.get(name, {"calls": 0, "self_s": 0.0})[key]

    m = {f"{n}.calls": get(n, "calls") for n in _CALLS}
    m.update({f"{n}.self_s": get(n, "self_s") for n in _SELF})
    m["groupalg.self_s"] = sum(v["self_s"] for n, v in totals.items() if n.startswith("groupalg."))
    m["contfrac.steps"] = counters.get("contfrac.steps", 0)
    m["elliptic.chi_tables_built"] = counters.get("elliptic.chi_tables_built", 0)
    m["elliptic.apcache.load_s"] = get("elliptic.apcache.load", "self_s")
    m["elliptic.apcache.rows_loaded"] = counters.get("elliptic.apcache.rows_loaded", 0)
    lookups = get("elliptic.apcache.lookup", "calls")
    m["elliptic.apcache.lookups"] = lookups
    m["elliptic.apcache.hit_ratio"] = counters.get("elliptic.apcache.hits", 0) / lookups if lookups else 0.0
    m["elliptic.apcache.flush_s"] = get("elliptic.apcache.flush", "self_s")
    m["lfunction.euler_factors"] = counters.get("lfunction.euler_factors", 0)
    return m


def import_metrics(work: Path) -> dict[str, float]:
    """Interpreter start and kzero/numpy import times, medians over child processes."""
    starts, kzero, numpy = [], [], []
    for _ in range(IMPORT_SAMPLES):
        starts.append(run_child([PY, "-c", "pass"], work, PASS_TIMEOUT_S).wall_s)
        child = run_child([PY, "-X", "importtime", "-c", "import kzero.cli"], work, PASS_TIMEOUT_S)
        k, n = wl.parse_importtime(child.stderr)
        kzero.append(k)
        numpy.append(n)
    return {"cli.interp_start_s": statistics.median(starts),
            "cli.import_s": statistics.median(kzero),
            "cli.numpy_import_s": statistics.median(numpy)}


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():  # not a git checkout of its own
        return None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return git.stdout.strip() if git.returncode == 0 else None


# -- one run -----------------------------------------------------------------------


def run(w: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    passes: list[Pass] = []
    preps: list[Prepared] = []
    setups: list[float] = []
    failures: list[str] = []
    reference: Optional[list] = None
    k = 0
    while True:
        mode = traced and k % 2 == 1
        prep = set_up(w, seed, work / f"pass{k}", mode)
        setups.append(prep.setup_s)
        p = execute(w, prep, mode)
        label = f"pass {k}{' traced' if mode else ''}"
        failures += check_pass(prep, p, reference, label)
        if reference is None:
            reference = p.outputs
        passes.append(p)
        preps.append(prep)
        k += 1
        spent = sum(x.wall_s for x in passes)
        if (not traced or k >= 2) and spent + max(x.wall_s for x in passes) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        prep = set_up(w, seed, work / f"setup{len(setups)}", False)
        setups.append(prep.setup_s)
        discard(prep)
    attempted = sum(len(p.latencies) for p in passes)

    if w.warm_check:
        # the same argv list against the cache the last cold pass filled: the README
        # promises byte-identical stdout with a warm cache
        prep = set_up(w, seed, work / "warm-check", False, cache_from=preps[-1].cache)
        p = execute(w, prep, False)
        failures += check_pass(prep, p, reference, "warm-cache check")
        attempted += len(p.latencies)

    probes = run_probes(work) if w.probes else []
    numpy = numpy_version(work)

    untraced = [p for p in passes if not p.traced]
    lat = sorted(x for p in untraced for x in p.latencies)
    rank90 = math.ceil(0.9 * len(lat))
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": lat[rank90 - 1] * 1e3,
        "pass_ratio": (attempted - len(failures)) / attempted,
        "peak_rss_mb": statistics.median(p.rss_mb for p in untraced),
        "setup_s": statistics.median(setups),
    }
    notes = {
        "wall_s": f"median of {len(untraced)} untraced passes",
        "op_p50_ms": f"n={len(lat)}",
        "op_p90_ms": f"n={len(lat)}, {len(lat) - rank90} samples beyond",
        "pass_ratio": f"{attempted - len(failures)} of {attempted} operations passed every check",
        "peak_rss_mb": "median over passes" + (", largest child" if not w.in_process else ""),
        "setup_s": f"median of {len(setups)} set-ups",
    }
    layers = {}
    if traced:
        per_pass = [layer_metrics(p) for p in passes if p.traced]
        layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layers.update(import_metrics(work))
        layers["bratteli.deadline_misses"] = sum(1 for pr in probes if pr["outcome"].startswith("killed"))
        layers["trace_overhead_s"] = (statistics.median(p.wall_s for p in passes if p.traced)
                                      - metrics["wall_s"])
    return {
        "passes": passes, "ops_per_pass": len(preps[0].ops), "setups": setups,
        "failures": failures, "attempted": attempted, "probes": probes, "numpy": numpy,
        "metrics": metrics, "notes": notes, "layers": layers,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kzero" / "cli.py").is_file():
        print(f"perfbench: no kzero sources at {SRC / 'kzero'}; run from a kzero checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    before = snapshot()
    try:
        report = run(w, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
    after = snapshot()
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    failures = report["failures"]
    correct = not failures and not changed

    failed_all, attempted_all, ratio = fail_ratio(failures, report["attempted"], report["probes"])
    numpy = report["numpy"]
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(), "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)), "ops_per_pass": report["ops_per_pass"],
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "ops": len(p.latencies),
                    "latencies_s": p.latencies} for p in report["passes"]],
        "setup_s": report["setups"], "attempted": report["attempted"],
        "failures": failures, "tree_changed": changed, "probes": report["probes"],
        "fail_ratio_with_probes": ratio,
        "metrics": report["metrics"], "per_layer": report["layers"],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{w.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    _write_json(record_path, record)

    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: "
          f"{len(report['passes'])} passes of {report['ops_per_pass']} operations "
          f"(python {record['python']}, numpy {numpy}, nproc {record['nproc']})")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {report['metrics'][name]:>12.6g} {unit:<3} {report['notes'][name]}")
    print(f"  {'fail_ratio':<14} {ratio:>12.6g} 1   {failed_all} of {attempted_all} "
          "operations failed, limit probes included")
    for pr in report["probes"]:
        print(f"  limit probe `kzero {pr['argv']}`: {pr['outcome']} "
              f"({'counted as failed' if pr['failed'] else 'ok'})")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<44} {report['layers'][name]:>12.6g} {unit}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    for path in changed[:20]:
        print(f"  CHANGED {path}")
    print(f"  output checks: {'pass' if correct else 'FAIL'}; record {record_path.relative_to(ROOT)}")

    names = PER_LAYER if args.trace else END_TO_END
    values = report["layers"] if args.trace else report["metrics"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
