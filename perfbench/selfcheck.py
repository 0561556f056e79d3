#!/usr/bin/env python3
"""Self-check of the benchmark's own output.

    python3 perfbench/selfcheck.py [--seconds 2]

Runs every workload of BENCHMARK.json briefly with two seeds, untraced,
and once traced, and fails (exit 1) unless
  * every run is correct and prints every metric of its kind with the
    unit BENCHMARK.json gives it;
  * the two seeds drive different payloads (the generator's or the
    model's payload digest differs);
  * every sim_* value is identical across the two seeds;
  * the lac-handshake entry of BENCHMARK.json states run.py's SLO_MS.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import SLO_MS  # noqa: E402


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(out.stderr)
        return None, None
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    why = {w["name"]: w["why"] for w in bench["workloads"]}.get("lac-handshake", "")
    if "latency limit %d ms" % SLO_MS not in why:
        problems.append("BENCHMARK.json: lac-handshake does not state run.py's SLO_MS")

    def expect_metrics(tag, result, specs):
        for m in specs:
            got = result["metrics"].get(m["name"])
            if got is None:
                problems.append("%s: no %s" % (tag, m["name"]))
            elif got["unit"] != m["unit"]:
                problems.append("%s: %s in %s, want %s" % (tag, m["name"], got["unit"], m["unit"]))

    for w in bench["workloads"]:
        name = w["name"]
        seen = []
        for seed in (1, 2):
            tag = "%s seed %d" % (name, seed)
            record, result = run(name, seed, args.seconds, 0)
            if result is None or not result["correct"]:
                problems.append("%s: run failed or incorrect" % tag)
                continue
            expect_metrics(tag, result, bench["end_to_end"])
            source = record.get("generator", record["model"])
            seen.append((source["payload_digest"], result["metrics"]))
        if len(seen) == 2:
            if seen[0][0] == seen[1][0]:
                problems.append("%s: seeds 1 and 2 drove the same payloads" % name)
            for m in bench["end_to_end"]:
                n = m["name"]
                if n.startswith("sim_") and seen[0][1][n]["value"] != seen[1][1][n]["value"]:
                    problems.append("%s: %s differs between seeds" % (name, n))
        record, result = run(name, 3, args.seconds, 1)
        if result is None or not result["correct"]:
            problems.append("%s traced: run failed or incorrect" % name)
        else:
            expect_metrics(name + " traced", result, bench["per_layer"])
        print("selfcheck: %s done" % name, flush=True)

    for p in problems:
        print("selfcheck: FAIL " + p)
    print("selfcheck: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
