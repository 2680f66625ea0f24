"""Steadiness of the benchmark: two sets of ten runs against the bounds.

    python3 perfbench/steady.py [workload ...]

Runs each workload (all by default) through run.py at seeds 1-10, with the
run length of BENCHMARK.json and tracing off, and then makes a second set of
the same runs.  For each set and every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), their
distance as a share of the median, and the metric's bound; after the second
set, how much worse its medians are than the first set's.  It exits 1
unless every run is correct, the share of failed operations is the same in
every run, every spread (setup_s included) is within its metric's bound and
no median of the second set is worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_set(spec: dict, wl: str) -> tuple[dict[str, list[float]], bool, set[float]]:
    """Ten runs of one workload: each metric's values, whether every run was
    correct, and the failed shares seen."""
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    correct, shares = True, set()
    for seed in SEEDS:
        cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        shares.add(res["failed"] / res["attempted"])
        for m in values:
            values[m].append(res["metrics"][m]["value"])
        print(f"{wl} seed {seed}: " + "  ".join(
            f"{m}={v[-1]:.4g}" for m, v in values.items()), flush=True)
    return values, correct, shares


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*")
    ns = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = ns.workloads or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    steady = True
    sets: list[dict[str, dict[str, list[float]]]] = []
    shares: dict[str, set[float]] = {wl: set() for wl in names}
    for n in (1, 2):
        sets.append({})
        for wl in names:
            values, correct, seen = run_set(spec, wl)
            sets[-1][wl] = values
            shares[wl] |= seen
            steady &= correct
            print(f"\nset {n}, {wl}: correct={correct}, failed shares {sorted(shares[wl])}")
            print(f"  {'metric':<14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
                  f"{'spread':>7s} {'bound':>6s}")
            for m, vals in values.items():
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med
                ok = spread <= metrics[m]["bound"]
                steady &= ok
                print(f"  {m:<14s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} "
                      f"{metrics[m]['bound']:6.2f} {'within' if ok else 'OUTSIDE'}")
            print(flush=True)

    print("second set against the first: median, first -> second, share worse")
    for wl in names:
        steady &= len(shares[wl]) == 1
        for m, spec_m in metrics.items():
            a, b = (statistics.median(s[wl][m]) for s in sets)
            worse = (b - a) / a if spec_m["better"] == "lower" else (a - b) / a
            ok = worse <= spec_m["bound"]
            steady &= ok
            print(f"  {wl:<9s} {m:<14s} {a:10.4f} -> {b:10.4f} {worse:+7.3f} "
                  f"{'within' if ok else 'OUTSIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
