#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout: python3 perfbench/smoke.py

For every workload in BENCHMARK.json, untraced and traced, on two seeds,
this checks that:
- the run exits 0;
- the oracle passes (correct, no failed operations);
- the metrics are exactly the declared end-to-end metrics (untraced) or
  per-layer metrics (traced), each with its declared unit and a finite
  value;
- both seeds report the same metric set.

It also checks that a run with a REPRO_* variable set is refused.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def run(workload, seed, trace, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            seen = []
            for seed in SEEDS:
                tag = "%s trace=%d seed=%d" % (w, trace, seed)
                p = run(w, seed, trace)
                if p.returncode != 0:
                    errors.append("%s: exit %d\n%s" % (tag, p.returncode, p.stderr[-2000:]))
                    continue
                res = json.loads(p.stdout.strip().splitlines()[-1])
                if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                    errors.append("%s: result keys %s" % (tag, sorted(res)))
                if res.get("correct") is not True or res.get("failed") != 0:
                    errors.append("%s: oracle: correct=%s failed=%s\n%s"
                                  % (tag, res.get("correct"), res.get("failed"), p.stdout[-2000:]))
                if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
                    errors.append("%s: attempted=%r" % (tag, res.get("attempted")))
                metrics = res.get("metrics", {})
                if set(metrics) != set(declared[trace]):
                    errors.append("%s: missing %s, undeclared %s" % (
                        tag, sorted(set(declared[trace]) - set(metrics)),
                        sorted(set(metrics) - set(declared[trace]))))
                for name, m in metrics.items():
                    unit = declared[trace].get(name)
                    if unit is not None and m.get("unit") != unit:
                        errors.append("%s: %s unit %r, declared %r" % (tag, name, m.get("unit"), unit))
                    v = m.get("value")
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        errors.append("%s: %s value %r" % (tag, name, v))
                seen.append(set(metrics))
                print("ok " + tag, flush=True)
            if len(seen) == 2 and seen[0] != seen[1]:
                errors.append("%s trace=%d: metric sets differ between seeds" % (w, trace))
    env = dict(os.environ, REPRO_SANITIZE="1")
    p = run("update-small", 1, 0, env=env)
    if p.returncode == 0 or p.stdout.strip():
        errors.append("armed environment was not refused (exit %d)" % p.returncode)
    else:
        print("ok armed environment refused", flush=True)
    for e in errors:
        print("FAIL " + e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
