"""One fresh interpreter of a benchmark pass.

    python3 child.py SRC REPORT SPEC_JSON

SPEC_JSON is an object with ``mode`` ("setup", "cli", "api" or "micro") and
the generated inputs for that mode.  The process imports ``diagmon`` and
``diagmon.cli`` from SRC, takes the setup timestamp, runs its inputs, and
writes a JSON report to REPORT: the setup timestamp, the CLI exit code,
and, when the spec asks for tracing, the tracer's aggregates and spans.

The program's own output goes to this process's standard output, which the
parent captures and checks against the reference digests.
"""

import hashlib
import json
import os
import sys
import time


def _matrix_digest(matrix):
    text = "\n".join(" ".join(map(str, row)) for row in matrix) + "\n"
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _api_call(algebra, zoo, call):
    """Run one library call given as [function, family, kind, side]."""
    fn, family, kind, side = call
    s = zoo.build(family)
    if fn == "radical_dim":
        return algebra.radical_dim(algebra.RationalAlgebra.of_monoid(s))
    e = zoo.semilattice_for(kind, family)
    if fn == "check_semisimple_quotient":
        return algebra.check_semisimple_quotient(s, e)
    if fn == "verify_stein":
        return algebra.verify_stein(s, e, side)
    if fn == "mobius_inverse":
        return _matrix_digest(
            algebra.mobius_inverse(algebra.natural_order(s, e, side))
        )
    raise ValueError(f"unknown API call {fn!r}")


def _micro(spec):
    """Untraced kernel micro-loops over seeded pairs of degree-4 elements."""
    import random

    from diagmon import diagrams as dg, relations as rel, zoo

    rng = random.Random(spec["seed"])
    partitions = zoo.partition_universe(4)
    pairs = [(rng.choice(partitions), rng.choice(partitions))
             for _ in range(spec["pairs"])]
    relations = [rel.BinaryRelation(4, tuple(rng.randrange(16) for _ in range(4)))
                 for _ in range(2 * spec["pairs"])]
    rel_pairs = list(zip(relations[::2], relations[1::2]))
    multiply, params, compose = dg.multiply, dg.params, rel.compose
    clock = time.perf_counter_ns

    def per_call_us(loop):
        samples = []
        for _ in range(spec["repeats"]):
            t0 = clock()
            loop()
            samples.append((clock() - t0) / 1000 / spec["pairs"])
        samples.sort()
        return samples[len(samples) // 2]

    def mul_loop():
        for a, b in pairs:
            multiply(a, b)

    def params_loop():
        for a, _ in pairs:
            params(a)

    def compose_loop():
        for a, b in rel_pairs:
            compose(a, b)

    return {
        "diagrams.multiply.us": per_call_us(mul_loop),
        "diagrams.params.us": per_call_us(params_loop),
        "relations.compose.us": per_call_us(compose_loop),
    }


def main(argv):
    src, report_path, spec_text = argv[1:4]
    sys.path.insert(0, src)
    import diagmon
    import diagmon.cli
    from diagmon import algebra, zoo

    if os.path.dirname(os.path.abspath(diagmon.__file__)) != os.path.join(
        os.path.abspath(src), "diagmon"
    ):
        sys.exit(f"diagmon imported from {diagmon.__file__}, not from {src}")
    spec = json.loads(spec_text)
    report = {"setup_ns": time.monotonic_ns()}
    mode = spec["mode"]

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer(spec["pass_id"])
        tracer.install()

    code = 0
    if mode == "cli":
        code = diagmon.cli.main(spec["argv"])
        sys.stdout.flush()
    elif mode == "api":
        for name, call in spec["calls"]:
            value = _api_call(algebra, zoo, call)
            sys.stdout.write(f"{name}\t{value}\n")
        sys.stdout.flush()
    elif mode == "micro":
        report["micro"] = _micro(spec)
    elif mode != "setup":
        sys.exit(f"unknown mode {mode!r}")
    report["exit"] = code

    if tracer is not None:
        tracer.finish()
        report["trace"] = tracer.to_json()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
