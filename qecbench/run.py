#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the verifier.

    python3 qecbench/run.py --workload <verify|count|frontier|serve|all> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `qecbench` package (release profile, offline; honours
CARGO_TARGET_DIR) against the verifier's crates next to this directory, then
runs one workload per process. The last line of standard output is the
workload's JSON result. `--workload all` runs every workload, each in its own
process, and prints one table. Exits nonzero when the build fails, a verdict
is wrong, or the run does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["verify", "count", "frontier", "serve"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        sys.exit("error: the verifier's crates are not next to the benchmark")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("error: the build timed out")
    if done.returncode != 0:
        sys.exit(f"error: the build failed (exit {done.returncode})")
    for line in done.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "qecbench":
            return msg["executable"]
    sys.exit("error: the build produced no qecbench binary")


def run(exe, workload, rest, capture):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [exe, "--workload", workload] + rest
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, ""
    return done.returncode, done.stdout or ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args, extra = parser.parse_known_args()
    rest = ["--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace] + extra
    exe = build()
    if args.workload != "all":
        code, _ = run(exe, args.workload, rest, capture=False)
        sys.exit(code)
    results = {}
    for workload in WORKLOADS:
        code, out = run(exe, workload, rest, capture=True)
        if code != 0:
            sys.exit(f"error: {workload} failed (exit {code})")
        results[workload] = json.loads(out.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':24s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{results[w]['metrics'][name]['value']:>14.4f}" for w in WORKLOADS)
        print(f"{name:24s} {unit:6s}{cells}")
    print(json.dumps(results))


if __name__ == "__main__":
    main()
