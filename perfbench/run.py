"""Benchmark entry point: one workload, one seed, one JSON line on stdout.

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/cslrad``.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  See perfbench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parents[1]
PROC = Path(__file__).resolve().parent / "proc.py"
WORKLOADS = ("analysis", "emission-dense", "emission-sparse", "cli")
# Processes that set up and run a first pass before the timed one: at least
# COLD_STARTS - 1, and more until they have taken COLD_MIN_S, so that the
# median first pass of a short-pass workload rests on more processes.
COLD_STARTS = 4
COLD_MIN_S = 8.0
CHILD_TIMEOUT_S = 170


def launch(workload, seed, mode, *extra):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PROC), workload, str(seed), repr(t0), mode, *map(str, extra)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cslrad" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no src/cslrad under {ROOT}; run from a checkout\n")
        return 2

    deadline = time.monotonic() + 175.0
    if args.trace:
        result = launch(args.workload, args.seed, "trace", args.seconds)
    else:
        # Set-up and the first pass repeat in fresh processes; each is the
        # median over those and the timed process.  Each set-up is corrected
        # for host speed by the cold-start references on either side of it.
        refs = [reference.cold_start(ROOT)]
        cold = []
        start = time.monotonic()
        while len(cold) < COLD_STARTS - 1 or time.monotonic() - start < COLD_MIN_S:
            cold.append(launch(args.workload, args.seed, "setup"))
            refs.append(reference.cold_start(ROOT))
        cold.append(launch(args.workload, args.seed, "run", args.seconds))
        refs.append(reference.cold_start(ROOT))
        result = cold[-1]
        metrics = result["metrics"]
        for other in cold[:-1]:
            result["attempted"] += other["attempted"]
            result["failed"] += other["failed"]
            result["correct"] &= other["correct"]
        setups = [r["metrics"]["setup_s"]["value"] for r in cold]
        metrics["raw.setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["cold_starts"] = {"value": len(cold), "unit": "count"}
        metrics["setup_s"]["value"] = statistics.median(
            s * reference.COLD_START_NOMINAL_S / (0.5 * (a + b))
            for s, a, b in zip(setups, refs, refs[1:]))
        for name in ("first_pass_s", "raw.first_pass_s"):
            metrics[name]["value"] = statistics.median(r["metrics"][name]["value"] for r in cold)
    if time.monotonic() > deadline:
        sys.stderr.write("perfbench: run exceeded its time budget\n")
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = result["metrics"]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        sys.stderr.write(f"perfbench: no figure for {', '.join(missing)}\n")
        return 3
    # Figures outside BENCHMARK.json (pass counts, repeated-input share, the
    # remaining span totals) go on the line before the result.
    print(json.dumps({"extra": {k: v for k, v in metrics.items() if k not in wanted}}))
    result["metrics"] = {name: metrics[name] for name in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
