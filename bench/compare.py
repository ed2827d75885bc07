"""Compare two sets of benchmark runs: ``compare.py A.json… -- B.json…``.

Each file is one ``run.py --json`` output.  The per-round samples of all
files on a side are pooled, and one row is printed per (end-to-end
metric, workload): both medians with their quartiles, the ratio B/A with
its base, and a verdict by the benchmark's own bounds:

``improved``
    B wins at least nine tenths of all (A, B) sample pairs, ties counting
    for neither, and the medians differ by more than A's own
    inter-quartile distance;
``regressed``
    B's median is worse than A's by more than the metric's bound, and the
    spread allows saying so;
``unresolved``
    the run-to-run spread of either side is wider than the bound, so
    "no worse than the bound" cannot be told from noise — unless every
    sample of one side beats every sample of the other;
``unchanged``
    otherwise.

Exits non-zero on any ``regressed`` row or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from stats import load_contract, summarise

WIN_SHARE = 0.9


def worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base`` as a share of ``base``
    (negative = better), in the metric's own direction."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def wins(metric: dict, a: List[float], b: List[float]) -> tuple:
    """``(b_wins, a_wins)`` over every (a, b) pair, ties counting for
    neither — the nine-tenths-of-pairs rule's raw material."""
    lower = metric["better"] == "lower"
    b_wins = a_wins = 0
    for x in a:
        for y in b:
            if y == x:
                continue
            if (y < x) == lower:
                b_wins += 1
            else:
                a_wins += 1
    return b_wins, a_wins


def load_side(paths: List[str]) -> Dict[str, dict]:
    """Pool the samples of several result files by workload."""
    pooled: Dict[str, dict] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        if document.get("trace"):
            raise SystemExit(f"{path}: a traced run has no end-to-end metrics")
        for name, result in document["workloads"].items():
            side = pooled.setdefault(
                name, {"samples": {}, "attempted": 0, "failed": 0}
            )
            for metric, row in result["metrics"].items():
                side["samples"].setdefault(metric, []).extend(row["samples"])
            side["attempted"] += result["attempted"]
            side["failed"] += result["failed"]
    return pooled


def verdict(metric: dict, a: List[float], b: List[float]) -> str:
    sum_a, sum_b = summarise(a), summarise(b)
    b_wins, a_wins = wins(metric, a, b)
    pairs = len(a) * len(b)
    differ = abs(sum_b["median"] - sum_a["median"]) > sum_a["q3"] - sum_a["q1"]
    worse = worse_by(metric, sum_a["median"], sum_b["median"])
    if b_wins >= WIN_SHARE * pairs and differ:
        return "improved"
    noisy = max(sum_a["spread"], sum_b["spread"]) > metric["bound"]
    if worse > metric["bound"] and (not noisy or a_wins == pairs):
        return "regressed"
    if noisy and b_wins != pairs:
        return "unresolved"
    return "unchanged"


def compare(paths_a: List[str], paths_b: List[str]) -> int:
    contract = load_contract()
    side_a, side_b = load_side(paths_a), load_side(paths_b)
    bad = False
    print(f"A = {', '.join(paths_a)}  (the base of every ratio)")
    print(f"B = {', '.join(paths_b)}")
    header = (f"{'workload':<26} {'metric':<15} {'unit':<4} "
              f"{'A median [q1, q3] n':<38} {'B median [q1, q3] n':<38} "
              f"{'B/A':>7} {'bound':>6}  verdict")
    print(header)
    for workload in contract["workloads"]:
        name = workload["name"]
        if name not in side_a or name not in side_b:
            continue
        for metric in contract["end_to_end"]:
            a = side_a[name]["samples"][metric["name"]]
            b = side_b[name]["samples"][metric["name"]]
            sum_a, sum_b = summarise(a), summarise(b)
            outcome = verdict(metric, a, b)
            bad |= outcome == "regressed"
            cells = [
                f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['n']}"
                for s in (sum_a, sum_b)
            ]
            print(f"{name:<26} {metric['name']:<15} {metric['unit']:<4} "
                  f"{cells[0]:<38} {cells[1]:<38} "
                  f"{sum_b['median'] / sum_a['median']:>7.3f} "
                  f"{metric['bound']:>6.2f}  {outcome}")
        share_a = side_a[name]["failed"] / side_a[name]["attempted"]
        share_b = side_b[name]["failed"] / side_b[name]["attempted"]
        higher = share_b > share_a
        bad |= higher
        print(f"{name:<26} {'failed_share':<15} {'':<4} {share_a:<38.6g} "
              f"{share_b:<38.6g} {'':>7} {'any':>6}  "
              f"{'regressed' if higher else 'unchanged'}")
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    split = argv.index("--")
    return compare(argv[:split], argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
