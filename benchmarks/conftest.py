"""Shared helpers for the figure-shape suite.

This directory is the paper's evaluation as assertions, plus the pinned
baselines the tier-1 tests and CI read (``transport_baseline.json``,
``live_twin_baseline.json``, ``fig5_obs_baseline.json``,
``flow_records_baseline.json``) and ``trajectory.jsonl``, the benchmark's
history.  Each module regenerates one table or figure of Sections V-VII
once, prints the reproduced rows/series in the paper's layout, and
checks the shape assertions that make the reproduction meaningful.
Nothing here is timed: the numbers come from ``bench/run.py``
(``BENCHMARK.json``); ``test_obs_overhead.py`` keeps one paired ratio
because no benchmark metric measures it.

Run with::

    PYTHONPATH=src python -m pytest benchmarks -q
"""

from __future__ import annotations

import sys


def emit(text: str) -> None:
    """Print a report block so it survives pytest's capture settings."""
    sys.stdout.write("\n" + text + "\n")
    sys.stdout.flush()
