"""Run two sets of ten benchmark runs and say whether they agree within the bounds.

    python3 perfbench/compare.py                      # every workload
    python3 perfbench/compare.py --workloads analysis

Each set runs every workload once per seed (seeds 1-10 in the first set,
11-20 in the second) for BENCHMARK.json's ``run_seconds``, with tracing
off.  Per workload and end-to-end metric it prints each set's median and
the spread between its quartiles as a share of the median, and whether
both spreads are within the metric's bound and the two medians differ by
no more than the bound, in either direction.  The failed share of
operations must be the same in every run.  Raw results go to
perfbench/results/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["extra"] = json.loads(lines[-2])["extra"]
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    results = {w: [[] for _ in range(SETS)] for w in args.workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in args.workloads:
                results[w][s].append(run_once(w, s * RUNS + i + 1, spec["run_seconds"]))
                sys.stderr.write(".")
                sys.stderr.flush()
    sys.stderr.write("\n")
    out = ROOT / "perfbench" / "results" / f"compare-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results))

    ok = True
    print(f"{'workload':16s} {'metric':14s} " + " ".join(
        f"{'median' + str(s + 1):>11s} {'iqr' + str(s + 1):>7s}" for s in range(SETS))
        + "  bound  verdict")
    for w, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            (m1, _), (m2, _) = stats
            good = all(iqr <= bound for _, iqr in stats) and abs(m2 - m1) / m1 <= bound
            ok &= good
            print(f"{w:16s} {name:14s} " + " ".join(f"{med:11.5g} {iqr:7.3f}" for med, iqr in stats)
                  + f"  {bound:5.2f}  {'agree' if good else 'DISAGREE'}")
        ok &= len(shares) == 1 and correct
        print(f"{w:16s} failed share {sorted(shares)}  correct {correct}")
    print("all agree" if ok else "some metrics disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
