#!/usr/bin/env python3
"""Record the reference output digest of every benchmark operation.

    python3 perfbench/record_reference.py

Runs one untraced pass of each workload and writes perfbench/reference.json:
for each operation, the SHA-256 and length of its output bytes, plus the
output text itself when it is one short line (the exact-algebra return
values) or the last line of the ``verify all`` report.  Run it only on a
commit whose outputs are known to be right; every benchmark run compares
against this file.
"""

import hashlib
import json
import random
import shutil
import sys
import time

import run


def main():
    if run.WORK.exists():
        shutil.rmtree(run.WORK)
    run.WORK.mkdir()
    reference = {}
    for workload in run.WORKLOADS:
        children, _ = run.run_pass(workload, random.Random(0),
                                   time.monotonic() + run.RUN_LIMIT_S)
        for child in children:
            if child.exit != 0:
                sys.exit(f"{workload}: {child.ops} exited {child.exit}")
            for key, data in run.op_outputs(child).items():
                entry = {"sha256": hashlib.sha256(data).hexdigest(),
                         "bytes": len(data)}
                text = data.decode()
                if child.spec["mode"] == "api":
                    entry["value"] = text
                elif key == "verify all":
                    entry["last_line"] = text.splitlines()[-1]
                reference[key] = entry
    shutil.rmtree(run.WORK)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
