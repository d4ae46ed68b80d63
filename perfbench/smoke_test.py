#!/usr/bin/env python3
"""Self-test of the repository benchmark on reduced grids.

Runs perfbench/run.py --smoke for every workload in BENCHMARK.json, once
untraced and once traced, and checks the output contract: the last
stdout line is one JSON object with exactly the keys correct, attempted,
failed and metrics; every end-to-end metric (untraced) or per-layer
metric (traced) is present with the unit BENCHMARK.json declares; the
golden check passed; and end-to-end values are positive.

Usage (from the root of a checkout): python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--smoke"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True,
                                  text=True, timeout=600)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                failures.append(f"{where}: golden check failed: {result}")
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in metrics}
            if set(got) != set(want):
                failures.append(f"{where}: metrics {sorted(got)} != "
                                f"{sorted(want)}")
                continue
            for name, unit in want.items():
                if got[name]["unit"] != unit:
                    failures.append(f"{where}: {name} unit "
                                    f"{got[name]['unit']} != {unit}")
                if trace == 0 and not got[name]["value"] > 0:
                    failures.append(f"{where}: {name} = {got[name]['value']}")
            print(f"ok  {where}", flush=True)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
