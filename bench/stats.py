"""Shared arithmetic for the benchmark driver, the comparer and the tests.

Everything here is plain stdlib and imports nothing from ``repro``: the
driver process never loads the program it measures.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def load_contract() -> dict:
    """``BENCHMARK.json`` at the root of the checkout."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median / q1 / q3 / n as ``statistics.quantiles(values, n=4)`` gives
    them (a single sample is its own quartiles), plus the IQR as a share
    of the median."""
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }
