#!/usr/bin/env python3
"""Builds and runs the simulated-machine makespan benchmark.

Run from the repository root:

    python3 makespan_bench/run.py --workload dn-short --seed 1 --seconds 20 --trace 0
    python3 makespan_bench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics (and writes a Perfetto trace). Every workload runs in a process of
its own. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full result, with the
configuration and rep counts, goes to `makespan_bench/results/`, which
`compare.py` reads.

The program is built from source with cargo into `$CARGO_TARGET_DIR`
(cargo's default when unset). Without the repository's crates beside this
directory the build fails and the script exits non-zero without a result.
"""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
RESULTS = HERE / "results"
BUILD_TIMEOUT_S = 850
# Time a run may take beyond its `--seconds` budget: warm-up sorts,
# memory probes, the minimum rep counts and the final traced round.
RUN_MARGIN_S = 145
KEYS = ("correct", "attempted", "failed", "metrics")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")
    for line in proc.stdout.splitlines():
        msg = json.loads(line) if line.startswith("{") else {}
        if (msg.get("reason") == "compiler-artifact"
                and msg.get("target", {}).get("name") == "makespan-bench"
                and msg.get("executable")):
            return msg["executable"]
    fail("the build produced no makespan-bench executable")


def run_one(exe, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its result file."""
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    out = stem.with_suffix(".json")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if trace:
        cmd += ["--perfetto", str(stem) + ".perfetto.json"]
    timeout = seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:g} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != set(KEYS):
        fail(f"{workload} printed an unexpected result line")
    return lines, result, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    exe = build()
    if args.workload != "all":
        lines, _, _ = run_one(exe, args.workload, args.seed, args.seconds,
                              args.trace)
        print("\n".join(lines))
        return

    names = subprocess.run([exe, "--list-workloads"], stdout=subprocess.PIPE,
                           text=True, check=True).stdout.split()
    runs, combined = [], {k: 0 for k in KEYS[1:3]}
    combined["correct"], combined["metrics"] = True, {}
    for name in names:
        lines, result, out = run_one(exe, name, args.seed, args.seconds,
                                     args.trace)
        print("\n".join(lines[:-1]))
        runs.append(json.loads(out.read_text()))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    path = RESULTS / f"all-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"results: {path}")
    print(json.dumps({k: combined[k] for k in KEYS}))


if __name__ == "__main__":
    main()
