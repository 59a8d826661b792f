#!/usr/bin/env python3
"""Self-test of the benchmark: run from the repository root as

    python3 qecbench/selftest.py

For every workload (`count` too, which `BENCHMARK.json` does not gate) it
makes a short run with tracing off and one with tracing on, and checks that
the result line carries exactly the metrics `BENCHMARK.json` names, each with
its unit, that no operation failed, that the traced run confirms the
workload's intended dominant layer, and that serve's p50 and p99 land on the
cache-hit and cold paths. Then it runs every workload with one
reference answer deliberately corrupted and checks that the benchmark exits
nonzero without printing a result. Exits nonzero on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402  (every workload, gated in BENCHMARK.json or not)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for name in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", name, "--seed", "99", "--seconds", "1", "--trace", trace]
            done = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True)
            doc = result_line(done.stdout)
            check(done.returncode == 0 and doc is not None,
                  f"{name} --trace {trace} runs and prints a result")
            if doc is None:
                continue
            check(set(doc) == {"correct", "attempted", "failed", "metrics"}
                  and doc["correct"] is True and doc["attempted"] >= 1
                  and doc["failed"] == 0,
                  f"{name} --trace {trace} result keys, every operation decided")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in doc["metrics"].items()}
            check(got == want, f"{name} --trace {trace} emits every {key} metric with its unit")
            if name == "serve" and trace == "0":
                check("p50 lands on Hit, p99 lands on Cold" in done.stdout,
                      "serve p50 measures the cache-hit path and p99 the cold path")
            if trace == "1":
                check("confirmed" in done.stdout and "NOT confirmed" not in done.stdout,
                      f"{name} traced run confirms the dominant layer")

    for name in WORKLOADS:
        args = ["--workload", name, "--seed", "99", "--seconds", "1", "--trace", "0",
                "--corrupt-reference"]
        done = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True)
        check(done.returncode != 0 and result_line(done.stdout) is None
              and "wrong verdict" in done.stderr,
              f"{name} with a corrupted reference exits nonzero without a result")

    if failures:
        print(f"{len(failures)} check(s) failed")
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
