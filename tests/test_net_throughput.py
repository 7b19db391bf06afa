#!/usr/bin/env python3
"""End-to-end checks of the bench/net_throughput load generator.

Usage: test_net_throughput.py NET_THROUGHPUT PSI_MKLOG

Runs the generator once per traffic source, each with -w 1 and tens of
requests: a paced -W round, --mix, --replay of a psi_mklog log (with
--record and --trace-out, then a replay of the capture), a
--fault-schedule round and a --backends 2 cluster.  Every run must exit
0, lose no request and end each round's JSON line with
"retry_exhausted"; a replay must send every log entry, stitch a client
span onto every request and record the log's requests.  The
checks hold on any host speed: no latency or throughput bound is read.
"""

import collections
import json
import os
import subprocess
import sys
import tempfile

NET_THROUGHPUT, PSI_MKLOG = sys.argv[1], sys.argv[2]
FAULTS = "seed=7,split=0.3,delay_us=0..200,reset_after=20000"
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)


def run(name, *args):
    """Run one --json round; return its round lines and other lines."""
    proc = subprocess.run([NET_THROUGHPUT, "-w", "1", "--json", *args],
                          capture_output=True, text=True, timeout=300)
    check(proc.returncode == 0,
          f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
    rounds, others = [], []
    for line in proc.stdout.splitlines():
        pairs = json.loads(line, object_pairs_hook=lambda p: p)
        if pairs and pairs[0][0] == "workers":
            check(pairs[-1][0] == "retry_exhausted",
                  f"{name}: round line ends in {pairs[-1][0]}")
            rounds.append(dict(pairs))
        else:
            others.append(dict(pairs))
    check(len(rounds) == 1, f"{name}: {len(rounds)} round lines")
    for r in rounds:
        check(r["lost"] == 0, f"{name}: lost {r['lost']}")
    return rounds, others


def requests(path):
    """A psi_reqlog file's entries as (workload, tenant, mode, deadline)."""
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    check(lines and lines[0].get("psi_reqlog") == 1,
          f"{path}: no version-1 header")
    entries = lines[1:]
    offsets = [e["at_ns"] for e in entries]
    check(offsets == sorted(offsets), f"{path}: at_ns goes backwards")
    return [(e["workload"], e.get("tenant", ""),
             e.get("mode", "fidelity"), e.get("deadline_ns", 0))
            for e in entries]


with tempfile.TemporaryDirectory() as tmp:
    run("paced", "-W", "nreverse30", "-n", "40", "-r", "200", "-c", "2")

    rounds, _ = run("mix", "--mix", "nreverse30:2,qsort50:1", "-n", "30",
                    "-r", "150", "-c", "2")
    for r in rounds:
        check(r["workload"] == "mix nreverse30:2,qsort50:1",
              f"mix: workload {r['workload']!r}")
        check(r["tenant_nreverse30_sent"] == 20 and
              r["tenant_qsort50_sent"] == 10,
              "mix: tenants sent "
              f"{r['tenant_nreverse30_sent']}/{r['tenant_qsort50_sent']}")

    log = os.path.join(tmp, "prod.reqlog")
    capture = os.path.join(tmp, "capture.reqlog")
    subprocess.run([PSI_MKLOG, "--seed", "42", "-n", "40", "--rate", "400",
                    "--fast-share", "0.3", "--deadline-share", "0.2",
                    "-o", log], check=True, capture_output=True,
                   timeout=60)
    logged = requests(log)
    rounds, others = run("replay", "--replay", log, "--speed", "4",
                         "-c", "2", "--record", capture, "--trace-out",
                         os.path.join(tmp, "trace.json"))
    for r in rounds:
        sent = sum(v for k, v in r.items()
                   if k.startswith("tenant_") and k.endswith("_sent"))
        check(sent == len(logged),
              f"replay: tenants sent {sent} of {len(logged)}")
        # The server tags every request it answers, refusals too;
        # the client must stitch its request span onto each of them.
        check(len(others) == 1 and
              others[0]["trace_requests"] == len(logged),
              f"replay: stitched {others and others[0]['trace_requests']}"
              f" of {len(logged)} requests")
    recorded = requests(capture)
    check(collections.Counter(recorded) == collections.Counter(logged),
          f"replay: capture holds {len(recorded)} requests that differ "
          f"from the log's {len(logged)}")
    rounds, _ = run("replay of the capture", "--replay", capture,
                    "--speed", "4", "-c", "2")
    for r in rounds:
        check(r["replay_entries"] == len(logged),
              f"capture replay: {r['replay_entries']} entries")

    run("fault", "-n", "30", "-r", "150", "-c", "2",
        "--fault-schedule", FAULTS)

    run("router", "--backends", "2", "-n", "30", "-r", "150", "-c", "2")

for failure in failures:
    print("FAIL:", failure)
sys.exit(1 if failures else 0)
