#!/usr/bin/env python3
"""End-to-end checks of the psibench binary against BENCHMARK.json.

For every workload BENCHMARK.json lists, with short runs:
  * the last stdout line is the JSON result with exactly the keys
    correct/attempted/failed/metrics, and no operation failed;
  * an untraced run prints exactly the end_to_end metrics and a
    traced run exactly the per_layer ones, every name matching
    [A-Za-z0-9_.-]+ and carrying the unit BENCHMARK.json gives;
  * end-to-end values are never 0;
  * two traced runs with one seed print the same schedule hash and
    repeat the exact counters exactly.

    python3 psibench/tests/check_metrics.py .bench_build/psibench/psibench
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
EXACT = ["micro.steps", "interp.model_ns", "kl0.code_words",
         "net.result_bytes", "service.cache_misses",
         "router.affinity_hit_ratio"]


def run(binary, workload, trace, seed=3, seconds=2):
    p = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace}: exit {p.returncode}\n"
                         f"{p.stderr[-2000:]}")
    return lines, json.loads(lines[-1])


def check_result(where, result, defs, problems):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: keys {sorted(result)}")
    if result["failed"] != 0 or result["correct"] is not True:
        problems.append(f"{where}: {result['failed']} of "
                        f"{result['attempted']} operations failed")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(defs):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(defs))}")
    for name, m in metrics.items():
        if not NAME.match(name):
            problems.append(f"{where}: bad metric name {name!r}")
        if name in defs and m.get("unit") != defs[name]["unit"]:
            problems.append(f"{where}: {name} unit {m.get('unit')!r}, "
                            f"BENCHMARK.json says {defs[name]['unit']!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")


def main():
    binary = os.path.abspath(sys.argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        _, plain = run(binary, w, 0)
        check_result(f"{w} trace=0", plain, e2e, problems)
        for name, m in plain["metrics"].items():
            if m["value"] == 0:
                problems.append(f"{w}: end-to-end {name} reads 0")
        lines_a, a = run(binary, w, 1)
        lines_b, b = run(binary, w, 1)
        check_result(f"{w} trace=1", a, layer, problems)
        if lines_a[0] != lines_b[0]:
            problems.append(f"{w}: same seed, different schedule:\n"
                            f"  {lines_a[0]}\n  {lines_b[0]}")
        for name in EXACT:
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            if va != vb:
                problems.append(f"{w}: exact counter {name} moved "
                                f"{va} -> {vb}")
        print(f"{w}: ok" if not problems else f"{w}: checked")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
