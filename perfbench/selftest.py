"""Self-test of the benchmark's failure accounting and of BENCHMARK.json.

    python3 perfbench/selftest.py

Shows that a deliberately wrong output and a deadline kill are both counted in
fail_ratio, that an untouched output passes, and that BENCHMARK.json names the
workloads and metrics run.py produces.  Takes a few seconds; exits 0 on success.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems = []
    try:
        op = {"argv": ["ap", "--D", "1", "--p", "10009"], "check": {"kind": "ap", "p": 10009}}
        child = run.run_child([run.PY, "-m", "kzero", *op["argv"], "--cache", str(work / "c.tsv")],
                              work, wl.OP_DEADLINE_S)
        head, row, status = child.stdout.rsplit("\n", 3)[:3]
        p, ap, ap_norm, match = row.split("\t")
        wrong = f"{head}\n{p}\t{2 * int(p)}\t{2 * int(p)}\t{match}\n{status}\n"  # breaks Hasse
        prep = run.Prepared([op, op], work, work / "c.tsv", 0.0)
        result = run.Pass(False, 0.0, [0.0, 0.0], [child.code, 0], [None, None],
                          [child.stdout, wrong], 0.0)
        failures = run.check_pass(prep, result, None, "selftest")
        if len(failures) != 1 or "Hasse" not in failures[0]:
            problems.append(f"the wrong a_p was not the one failure: {failures}")

        probes = run.run_probes(work, deadline=1.0)
        if not all(pr["outcome"].startswith("killed") for pr in probes):
            problems.append(f"the limit probes were not killed at a 1 s deadline: {probes}")
        failed, total, ratio = run.fail_ratio(failures, len(result.latencies), probes)
        if (failed, total) != (1 + len(wl.PROBES), 2 + len(wl.PROBES)):
            problems.append(f"fail_ratio counted {failed} of {total}")
        print(f"selftest: fail_ratio {ratio:.4g} = {failed} of {total} "
              "(one wrong output, two killed probes, one good output)")
    finally:
        run.stop_children()
        shutil.rmtree(work, ignore_errors=True)

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(names):
            problems.append(f"BENCHMARK.json {key} differs from run.py")

    for line in problems:
        print(f"selftest: FAIL {line}")
    print("selftest: pass" if not problems else "selftest: FAIL")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
