"""Compare two sets of benchmark results.

    python3 bench/compare.py bench/results/set1.jsonl bench/results/set2.jsonl

Each file holds the JSON lines ``bench/run.py --out FILE`` appends, one
per workload run. For every (workload, end-to-end metric) the script
prints each set's median and its spread (the distance between the first
and third quartile as a share of the median), the ratio B/A, and the
metric's bound from ``BENCHMARK.json``. It exits 1 when B is worse than
A by more than the bound for any pair, and 0 otherwise. Traced runs in
both sets add a table of per-layer medians and their deltas.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

Key = Tuple[str, str]


def load(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def values(records: List[dict], traced: bool) -> Dict[Key, List[float]]:
    """``(workload, metric) -> [value per run]``."""
    table: Dict[Key, List[float]] = {}
    for record in records:
        if bool(record["trace"]) != traced:
            continue
        for name, metric in record["metrics"].items():
            table.setdefault((record["workload"], name), []).append(
                metric["value"]
            )
    return table


def spread(samples: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    return (q3 - q1) / mid if mid else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    change = (b - a) / a
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="baseline result set (JSON lines)")
    parser.add_argument("b", help="result set to compare (JSON lines)")
    args = parser.parse_args(argv)
    with (ROOT / "BENCHMARK.json").open("r", encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {metric["name"]: metric for metric in spec["end_to_end"]}
    records_a, records_b = load(args.a), load(args.b)

    failures = 0
    a, b = values(records_a, False), values(records_b, False)
    print(f"{'workload':<17} {'metric':<12} {'median A':>10} {'spread A':>9}"
          f" {'median B':>10} {'spread B':>9} {'B/A':>7} {'bound':>6}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        metric = end_to_end.get(name)
        if metric is None:
            continue
        median_a, median_b = statistics.median(a[key]), statistics.median(
            b[key])
        worse = worse_by(median_a, median_b, metric["better"])
        verdict = "ok"
        if worse > metric["bound"]:
            verdict = "WORSE"
            failures += 1
        print(f"{workload:<17} {name:<12} {median_a:>10.4g} "
              f"{spread(a[key]):>9.1%} {median_b:>10.4g} "
              f"{spread(b[key]):>9.1%} {median_b / median_a:>7.3f} "
              f"{metric['bound']:>6.0%}  {verdict}")
    missing = sorted(set(a) ^ set(b))
    for workload, name in missing:
        if name in end_to_end:
            print(f"{workload:<17} {name:<12} present in one set only")
            failures += 1

    layer_a, layer_b = values(records_a, True), values(records_b, True)
    shared = sorted(set(layer_a) & set(layer_b))
    if shared:
        print(f"\n{'workload':<17} {'per-layer metric':<40} {'median A':>11}"
              f" {'median B':>11} {'delta':>11}")
        for key in shared:
            median_a = statistics.median(layer_a[key])
            median_b = statistics.median(layer_b[key])
            if median_a == 0 and median_b == 0:
                continue
            print(f"{key[0]:<17} {key[1]:<40} {median_a:>11.4g} "
                  f"{median_b:>11.4g} {median_b - median_a:>+11.4g}")
    for label, records in (("A", records_a), ("B", records_b)):
        calibration = [r["host"]["calibration_s"] for r in records]
        commits = sorted({str(r["host"]["commit"])[:12] for r in records})
        if calibration:
            print(f"\nset {label}: {len(records)} run(s), commit(s) "
                  f"{', '.join(commits)}, calibration median "
                  f"{statistics.median(calibration):.4f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
