#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py [WORKLOAD ...]

For each workload (all three by default) it runs one untraced and one
traced pass with the same seed and checks that every operation gives the
same output digest in both, and that the digest is the reference one.  It
prints the tracing overhead: the traced pass's wall time minus the
untraced pass's.  It also checks that the metric names in BENCHMARK.json
match the ones run.py reports, and that run.py's list of verify checks and
CLI subcommands matches the program's.  Exits 1 on any mismatch.
"""

import json
import random
import shutil
import sys
import time

import run


def check_names():
    """Metric and program names agree between BENCHMARK.json, run.py and diagmon."""
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in run.END_TO_END]:
        problems.append("end_to_end names differ from run.END_TO_END")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != [m[:3] for m in run.PER_LAYER]:
        problems.append("per_layer entries differ from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    sys.path.insert(0, str(run.SRC))
    from diagmon import cli, verify

    checks = tuple(c.__name__ for suite in verify.SUITES.values() for c in suite)
    if checks != run.VERIFY_CHECKS:
        problems.append(f"verify checks are {checks}")
    parser = cli.make_parser()
    subs = next(a for a in parser._actions if a.dest == "command").choices
    if tuple(subs) != run.SUBCOMMANDS:
        problems.append(f"CLI subcommands are {tuple(subs)}")
    return problems


def check_workload(workload, reference, seed=1):
    digests, walls = {}, {}
    for trace in (False, True):
        deadline = time.monotonic() + run.RUN_LIMIT_S
        children, wall = run.run_pass(workload, random.Random(seed), deadline,
                                      trace=trace)
        walls[trace] = wall
        digests[trace] = {}
        for child in children:
            _, _, d = run.check_ops(child, reference)
            digests[trace].update(d)
    problems = []
    for key, digest in digests[False].items():
        if digest != digests[True].get(key):
            problems.append(f"{workload}: {key} differs when traced")
        if digest != reference[key]["sha256"]:
            problems.append(f"{workload}: {key} differs from the reference")
    overhead = walls[True] - walls[False]
    print(f"{workload}: untraced {walls[False]:.2f} s, traced {walls[True]:.2f} s, "
          f"overhead {overhead:.2f} s ({overhead / walls[False]:.0%})")
    return problems


def main(argv):
    workloads = argv[1:] or run.WORKLOADS
    reference = json.loads(run.REFERENCE.read_text())
    if run.WORK.exists():
        shutil.rmtree(run.WORK)
    run.WORK.mkdir()
    problems = check_names()
    for workload in workloads:
        problems += check_workload(workload, reference)
    shutil.rmtree(run.WORK)
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
