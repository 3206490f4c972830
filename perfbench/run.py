#!/usr/bin/env python3
"""The diagmon benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

- ``verify-all``: one fresh interpreter runs ``diagmon verify all``.
- ``cli-degree4``: five CLI commands on the largest members of their
  families, each in a fresh interpreter, in an order drawn from the seed.
- ``exact-algebra``: one fresh interpreter makes four exact-algebra library
  calls, in an order drawn from the seed.

The load is a closed loop: this single client process runs one child
interpreter at a time and starts the next only when the previous one has
exited.  A pass is one run of the workload; passes repeat until ``--seconds``
have elapsed and the workload's ``MIN_PASSES`` are done, and every pass
counts.
Every child runs with ``DIAGMON_WORKERS`` removed from its environment, so
the default single-process path is measured.

With ``--trace 0`` the run reports the end-to-end metrics (medians over its
passes).  With ``--trace 1`` it makes one traced pass and one untraced
kernel micro-loop run instead, and reports the per-layer metrics.  Every
operation's output is checked against ``perfbench/reference.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the failed fraction and the environment.

``--workload all`` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

RUN_LIMIT_S = 170  # a run must end within 180 s
# Passes a run makes at least, whatever --seconds says.  One pass of
# cli-degree4 (about 27 s) is short enough that the host's speed drift
# spreads its run-to-run wall time by about 0.18; two passes average the
# drift over a window twice as long.  The other workloads run one pass.
MIN_PASSES = {"cli-degree4": 2}
SETUP_PROBES = 10  # extra setup-only interpreters per run
MICRO = {"pairs": 20000, "repeats": 5}

CLI_DEGREE4 = (
    ("build RR4", ["build", "RR4", "--out", "{out}"]),
    ("eggbox LL4", ["eggbox", "LL4"]),
    ("analyze RR4 F", ["analyze", "RR4", "F"]),
    ("category PT4 E", ["category", "PT4", "E"]),
    ("stein PT3 E left", ["stein", "PT3", "E", "--side", "left"]),
)
EXACT_ALGEBRA = (
    ("check_semisimple_quotient I4 E",
     ["check_semisimple_quotient", "I4", "E", None]),
    ("radical_dim P3", ["radical_dim", "P3", None, None]),
    ("verify_stein PT4 E left", ["verify_stein", "PT4", "E", "left"]),
    ("mobius_inverse PT4 E left", ["mobius_inverse", "PT4", "E", "left"]),
)
WORKLOADS = ("verify-all", "cli-degree4", "exact-algebra")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

VERIFY_CHECKS = (
    "check_transform_isomorphism",
    "check_semisimple_dimensions",
    "check_relation_suite",
    "check_relation_sizes",
    "check_worked_example",
    "check_block_identity_axioms",
    "check_partial_identity_failure",
    "check_identity_set_formulas",
    "check_order_characterizations",
    "check_regular_subsemigroups",
    "check_restriction_subsemigroups",
    "check_rank_chain_structure",
    "check_partition_sizes",
    "check_brauer_failure",
    "check_brauer_regular_part",
    "check_rook_suite",
    "check_brauer_sizes",
)
SUBCOMMANDS = ("build", "analyze", "eggbox", "category", "stein", "verify")

# Per-layer metrics: (name, unit, better, source, key).  Sources: "self" and
# "calls" read the tracer's aggregate for a wrapped function, "counter" a
# tracer counter, "micro" the untraced kernel micro-loops, "layer" the summed
# self time of a module, "cli" the cli layer's self time in the processes
# that ran a subcommand, "trace" the traced pass as a whole.
PER_LAYER = (
    ("diagrams.multiply.calls", "count", "lower", "calls", "diagrams.multiply"),
    ("diagrams.multiply.us", "us", "lower", "micro", "diagrams.multiply.us"),
    ("diagrams.multiply.s", "s", "lower", "self", "diagrams.multiply"),
    ("diagrams.params.calls", "count", "lower", "calls", "diagrams.params"),
    ("diagrams.params.us", "us", "lower", "micro", "diagrams.params.us"),
    ("diagrams.params.s", "s", "lower", "self", "diagrams.params"),
    ("relations.compose.calls", "count", "lower", "calls", "relations.compose"),
    ("relations.compose.us", "us", "lower", "micro", "relations.compose.us"),
    ("relations.compose.s", "s", "lower", "self", "relations.compose"),
    ("zoo.build.s", "s", "lower", "self", "zoo.build"),
    ("zoo.build.misses", "count", "lower", "counter", "zoo.build.misses"),
    ("zoo.build.hits", "count", "higher", "counter", "zoo.build.hits"),
    ("zoo.filter.keep_ratio", "ratio", "higher", "keep_ratio", None),
    ("zoo.semilattice_for.s", "s", "lower", "self", "zoo.semilattice_for"),
    ("monoid.from_elements.s", "s", "lower", "self",
     "monoid.FiniteMonoid.from_elements"),
    ("monoid.table.products", "count", "lower", "counter",
     "monoid.table.products"),
    ("monoid.mul.calls", "count", "lower", "counter", "monoid.mul.calls"),
    ("monoid.mul.ondemand_calls", "count", "lower", "counter",
     "monoid.mul.ondemand_calls"),
    ("monoid.green.s", "s", "lower", "self", "monoid.green"),
    ("monoid.green.calls", "count", "lower", "calls", "monoid.green"),
    ("monoid.check_embedding.s", "s", "lower", "self", "monoid.check_embedding"),
    ("monoid.is_regular.s", "s", "lower", "self", "monoid.is_regular"),
    ("ehresmann.check_axioms.s", "s", "lower", "self", "ehresmann.check_axioms"),
    ("ehresmann.check_axioms.generator_sweeps", "count", "lower", "counter",
     "ehresmann.check_axioms.generator_sweeps"),
    ("ehresmann.rest_subsemigroups.s", "s", "lower", "self",
     "ehresmann.rest_subsemigroups"),
    ("ehresmann.reg_e.s", "s", "lower", "self", "ehresmann.reg_e"),
    ("ehresmann.tilde_h_class.s", "s", "lower", "self",
     "ehresmann.tilde_h_class"),
    ("ehresmann.below_sets.s", "s", "lower", "self", "ehresmann.below_sets"),
    ("algebra.radical_dim.s", "s", "lower", "self", "algebra.radical_dim"),
    ("algebra.trace_left.calls", "count", "lower", "calls",
     "algebra.RationalAlgebra.trace_left"),
    ("algebra.trace_left.s", "s", "lower", "self",
     "algebra.RationalAlgebra.trace_left"),
    ("algebra.verify_stein.s", "s", "lower", "self", "algebra.verify_stein"),
    ("algebra.verify_stein.sampled_calls", "count", "lower", "counter",
     "algebra.verify_stein.sampled_calls"),
    ("algebra.mobius_inverse.s", "s", "lower", "self", "algebra.mobius_inverse"),
    ("algebra.build_category.s", "s", "lower", "self", "algebra.build_category"),
    ("algebra.is_ei.s", "s", "lower", "self", "algebra.is_ei"),
    ("dotout.emit_eggbox.s", "s", "lower", "self", "dotout.emit_eggbox"),
    ("dotout.bytes", "bytes", "lower", "counter", "dotout.bytes"),
    *((f"verify.{c}.s", "s", "lower", "self", f"verify.{c}")
      for c in VERIFY_CHECKS),
    ("verify.checks_passed", "count", "higher", "counter",
     "verify.checks_passed"),
    *((f"cli.{c}.s", "s", "lower", "cli", c) for c in SUBCOMMANDS),
    ("cli.output_bytes", "bytes", "lower", "counter", "cli.output_bytes"),
    *((f"layer.{layer}.s", "s", "lower", "layer", layer) for layer in LAYERS),
    ("trace.pass_s", "s", "lower", "trace", "pass_s"),
    ("trace.unattributed.s", "s", "lower", "trace", "unattributed_s"),
    ("trace.spans", "count", "lower", "trace", "spans"),
)


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "child_env": "DIAGMON_WORKERS removed, PYTHONDONTWRITEBYTECODE=1",
        "load": "closed loop, one client process, one child at a time",
    }


# -- children -----------------------------------------------------------------


class Child:
    """One finished child interpreter: its cost, exit status and outputs."""

    def __init__(self, spec, ops, tag, deadline):
        self.spec = spec
        self.ops = ops
        stdout_path = WORK / f"{tag}.stdout"
        report_path = WORK / f"{tag}.report.json"
        env = dict(os.environ)
        env.pop("DIAGMON_WORKERS", None)
        # No bytecode cache: set-up is the same on the first run in a fresh
        # checkout as on later ones, and nothing is written under src/.
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        cmd = [sys.executable, str(CHILD), str(SRC), str(report_path),
               json.dumps(spec)]
        t0 = time.monotonic_ns()
        with open(stdout_path, "wb") as out, open(WORK / f"{tag}.stderr", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                proc.kill()

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.end_ns = time.monotonic_ns()
        self.start_ns = t0
        self.exit = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.stdout = stdout_path.read_bytes()
        try:
            self.report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            self.report = {}
        self.setup_s = (
            (self.report["setup_ns"] - t0) / 1e9 if "setup_ns" in self.report
            else None
        )


def plan_pass(workload, rng, trace, pass_id):
    """The processes of one pass: a list of (spec, op keys)."""
    base = {"trace": trace, "pass_id": pass_id}
    if workload == "verify-all":
        return [({**base, "mode": "cli", "argv": ["verify", "all"]},
                 ["verify all"])]
    if workload == "cli-degree4":
        out = str(WORK / "build-RR4.json")
        return [
            ({**base, "mode": "cli",
              "argv": [a.replace("{out}", out) for a in argv]}, [key])
            for key, argv in rng.sample(CLI_DEGREE4, len(CLI_DEGREE4))
        ]
    if workload == "exact-algebra":
        calls = rng.sample(EXACT_ALGEBRA, len(EXACT_ALGEBRA))
        return [({**base, "mode": "api", "calls": calls},
                 [key for key, _ in calls])]
    raise ValueError(workload)


def op_outputs(child):
    """Map each op key of a finished child to its output bytes (or None)."""
    spec = child.spec
    if spec["mode"] == "api":
        values = {}
        for line in child.stdout.decode(errors="replace").splitlines():
            key, _, value = line.partition("\t")
            values[key] = value.encode()
        return {key: values.get(key) for key in child.ops}
    (key,) = child.ops
    argv = spec["argv"]
    if "--out" in argv:
        if child.stdout:
            return {key: None}  # a command with --out prints nothing
        try:
            return {key: Path(argv[argv.index("--out") + 1]).read_bytes()}
        except OSError:
            return {key: None}
    return {key: child.stdout}


def check_ops(child, reference):
    """(attempted, failed, {op key: digest}) for one child."""
    outputs = op_outputs(child)
    failed = 0
    digests = {}
    for key, data in outputs.items():
        digest = hashlib.sha256(data).hexdigest() if data is not None else None
        digests[key] = digest
        ok = (
            child.exit == 0
            and data is not None
            and b"[FAIL]" not in data
            and digest == reference.get(key, {}).get("sha256")
        )
        failed += not ok
    return len(outputs), failed, digests


def run_pass(workload, rng, deadline, trace=False, pass_id=0):
    children = []
    for i, (spec, ops) in enumerate(plan_pass(workload, rng, trace, pass_id)):
        children.append(Child(spec, ops, f"p{pass_id}-{i}", deadline))
    wall_s = (children[-1].end_ns - children[0].start_ns) / 1e9
    return children, wall_s


# -- metrics ------------------------------------------------------------------


def setup_probes(count, tag, deadline):
    """Setup times of `count` fresh interpreters that only import and exit."""
    times = []
    for i in range(count):
        probe = Child({"mode": "setup"}, [], f"{tag}{i}", deadline)
        if probe.exit != 0 or probe.setup_s is None:
            raise RuntimeError("setup probe failed:\n"
                               + (WORK / f"{tag}{i}.stderr").read_text())
        times.append(probe.setup_s)
    return times


def end_to_end(workload, seed, seconds, reference):
    rng = random.Random(seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    # Half the probes before the passes and half after, so that the median
    # spans the run rather than one moment of it.
    setup = setup_probes(SETUP_PROBES // 2, "setup-a", deadline)
    walls, cpus, rsss = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    pass_id = 0
    while True:
        children, wall = run_pass(workload, rng, deadline, pass_id=pass_id)
        walls.append(wall)
        cpus.append(sum(c.cpu_s for c in children))
        rsss.append(max(c.rss_mb for c in children))
        for c in children:
            a, f, _ = check_ops(c, reference)
            attempted += a
            failed += f
            if c.setup_s is not None:
                setup.append(c.setup_s)
        pass_id += 1
        if time.monotonic() + wall > deadline:
            break
        if (pass_id >= MIN_PASSES.get(workload, 1)
                and time.monotonic() - start >= seconds):
            break
    setup += setup_probes(SETUP_PROBES - SETUP_PROBES // 2, "setup-b", deadline)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
    }
    notes = {"passes": pass_id, "setup_samples": len(setup)}
    return metrics, attempted, failed, notes


def traced(workload, seed, reference):
    """One traced pass plus the untraced kernel micro-loops."""
    rng = random.Random(seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    children, wall = run_pass(workload, rng, deadline, trace=True)
    attempted = failed = 0
    stats, counters, layer_ns, cli_ns, spans = {}, {}, {}, {}, []
    for c in children:
        a, f, _ = check_ops(c, reference)
        attempted += a
        failed += f
        tr = c.report.get("trace")
        if tr is None:  # the child died before writing its trace
            failed += a - f
            continue
        for name, (calls, _, self_ns) in tr["stats"].items():
            agg = stats.setdefault(name, [0, 0])
            agg[0] += calls
            agg[1] += self_ns
        for key, n in tr["counters"].items():
            counters[key] = counters.get(key, 0) + n
        for layer, ns in tr["layer_self_ns"].items():
            layer_ns[layer] = layer_ns.get(layer, 0) + ns
        if c.spec["mode"] == "cli":
            sub = c.spec["argv"][0]
            cli_ns[sub] = cli_ns.get(sub, 0) + tr["layer_self_ns"]["cli"]
        spans.extend(tr["spans"])
    micro = Child({"mode": "micro", "seed": seed, **MICRO}, [], "micro",
                  deadline)
    if micro.exit != 0:
        raise RuntimeError("micro-loops failed:\n"
                           + (WORK / "micro.stderr").read_text())
    with open(WORK / f"trace-{workload}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["id", "parent", "name", "start_ns", "end_ns",
                              "pass_id"],
                   "spans": spans}, fh)

    attributed = sum(layer_ns.values()) / 1e9
    whole = {"pass_s": wall, "unattributed_s": wall - attributed,
             "spans": len(spans)}
    kept = counters.get("zoo.filter.kept", 0)
    scanned = counters.get("zoo.filter.scanned", 0)
    metrics = {}
    for name, unit, _, source, key in PER_LAYER:
        if source == "self":
            value = stats.get(key, [0, 0])[1] / 1e9
        elif source == "calls":
            value = stats.get(key, [0, 0])[0]
        elif source == "counter":
            value = counters.get(key, 0)
        elif source == "micro":
            value = micro.report["micro"][key]
        elif source == "layer":
            value = layer_ns.get(key, 0) / 1e9
        elif source == "cli":
            value = cli_ns.get(key, 0) / 1e9
        elif source == "trace":
            value = whole[key]
        else:  # keep_ratio
            value = kept / scanned if scanned else 0.0
        metrics[name] = (value, unit)
    return metrics, attempted, failed


# -- entry point ---------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, reference):
    if trace:
        metrics, attempted, failed = traced(workload, seed, reference)
        notes = {}
    else:
        values, attempted, failed, notes = end_to_end(
            workload, seed, seconds, reference
        )
        units = dict(END_TO_END)
        metrics = {name: (values[name], units[name]) for name in units}
    print(f"workload {workload} seed {seed} trace {int(trace)} "
          + " ".join(f"{k} {v}" for k, v in notes.items()))
    for name, (value, unit) in metrics.items():
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {text} {unit}")
    frac = failed / attempted if attempted else 1.0
    print(f"  failed_frac = {frac:.4f} ratio ({failed}/{attempted} operations)")
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diagmon" / "__init__.py").is_file():
        print(f"error: no diagmon sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_metrics = {}
    attempted = failed = 0
    for workload in workloads:
        metrics, a, f = run_workload(workload, args.seed, args.seconds,
                                     bool(args.trace), reference)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, unit) in metrics.items():
            all_metrics[prefix + name] = {"value": value, "unit": unit}
        attempted += a
        failed += f
    for path in WORK.iterdir():
        if not path.name.startswith("trace-"):
            path.unlink()
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
