"""One measurement in its own process: import, build, warm up, one timed unit.

``run.py`` starts one of these per (round, workload), never two at once,
so every sample pays interpreter start, import and lazy set-up the way a
user's run does, and nothing carries over between samples.  The last line
of standard output is one JSON object: the sample.

Every time is reported in reference-host seconds (``reference.py``): the
unit is timed in slices with the reference kernel run between them, the
set-up against the kernel run before the imports and after the warm-up.
A process's first unit is its slowest by a tenth (allocator, the
program's own caches), which is what a user's run pays, so a child times
exactly one.

Harness spans (``import``, ``build``, ``warmup``, ``run``, ``collect``,
plus the live phases) are recorded here, around this file's own calls
into the program; spans inside the program are a later change.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

import reference

SETUP_REFERENCES = 3  # kernel readings before the imports, and after warm-up


class Spans:
    """Named intervals on the monotonic clock, each with its parent."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[str] = []

    @contextmanager
    def __call__(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.add(name, start, time.perf_counter(), parent)

    def add(self, name: str, start: float, end: float, parent: Optional[str]) -> None:
        self.records.append(
            {"name": name, "start": start, "end": end, "parent": parent}
        )


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    descendant (the farm's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # Linux reports KiB


def timed_unit(workload, scenario) -> tuple:
    """Run one unit: ``(result, slices, references)``, a slice being its
    ``(raw, reference-host)`` seconds."""
    if getattr(workload, "PARALLEL", False):
        sampler = reference.Sampler()
        sampler.start()
        start = time.perf_counter()
        result = workload.run(scenario)
        raw = time.perf_counter() - start
        slices = [(raw, reference.normalise(raw, sampler.stop()))]
        references = sampler.references
    else:
        meter = reference.Meter()
        result = workload.run(scenario, meter.tick)
        slices, references = meter.slices, meter.references
    return result, slices, references


def measure(name: str, seed: int, scale: float, spawned_at: float,
            profile: bool) -> Dict[str, Any]:
    spans = Spans()
    before = time.perf_counter()
    references = [reference.kernel_s() for _ in range(SETUP_REFERENCES)]
    in_reference = time.perf_counter() - before
    with spans("import"):
        import layers
        import workloads
    workload = workloads.get(name)
    with spans("build"):
        scenario = workload.build(seed, scale, traced=False)
    with spans("warmup"):
        workload.run(workload.build(seed, scale / 10.0, traced=False))
    gc.collect()
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # driver's spawn time and this process's readings share an origin
    setup_raw_s = time.perf_counter() - spawned_at - in_reference
    references += [reference.kernel_s() for _ in range(SETUP_REFERENCES)]
    setup_s = reference.normalise(setup_raw_s, statistics.median(references))

    with spans("run"):
        result, slices, references = timed_unit(workload, scenario)
    with spans("collect"):
        outcome = workload.collect(scenario, result)
    for phase, (begin, end) in outcome.pop("phases", {}).items():
        spans.add(phase, begin, end, "run")
    first, stop, per_op_n = outcome.get("per_op", (0, None, outcome["ops"]))
    sample: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "op": workload.op,
        "metrics": {
            "setup_s": setup_s,
            "wall_s": sum(steady for _, steady in slices),
            "wall_us_per_op":
                sum(steady for _, steady in slices[first:stop]) * 1e6 / per_op_n,
            "peak_rss_mb": peak_rss_mb(),
        },
        # as the clock read them, and how slow the host was: not metrics
        "raw": {
            "setup_s": setup_raw_s,
            "wall_s": sum(raw for raw, _ in slices),
            "host_slowdown":
                statistics.median(references) / reference.NOMINAL_S,
        },
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "fingerprint": outcome["fingerprint"],
        "counts": outcome["counts"],
        "layer": outcome.get("layer", {}),
        "spans": spans.records,
    }
    if profile:
        sample["layer"].update(
            _traced(workload, layers, seed, scale, outcome,
                    sample["raw"]["wall_s"], spans)
        )
    return sample


def _traced(workload, layers, seed: int, scale: float, untraced: Dict[str, Any],
            untraced_wall_s: float, spans: Spans) -> Dict[str, float]:
    """Run the timed unit once more under cProfile and attribute it.

    A workload that is traced differently from how it is timed (the farm:
    inline, because cProfile cannot see pool workers) has its overhead
    ratio taken against an untraced run built the same way."""
    reference_wall_s = untraced_wall_s
    if getattr(workload, "TRACED_INLINE", False):
        inline = workload.build(seed, scale, traced=True)
        with spans("run_inline"):
            start = time.perf_counter()
            workload.run(inline)
            reference_wall_s = time.perf_counter() - start
    scenario = workload.build(seed, scale, traced=True)
    gc.collect()
    profiler = cProfile.Profile()
    with spans("run_traced"):
        start = time.perf_counter()
        result = profiler.runcall(workload.run, scenario)
        traced_wall_s = time.perf_counter() - start
    outcome = workload.collect(scenario, result)
    if outcome["fingerprint"] != untraced["fingerprint"]:
        raise RuntimeError("the traced run changed the simulated record")
    metrics = layers.attribute(profiler, outcome["ops"])
    metrics["trace.overhead_ratio"] = traced_wall_s / reference_wall_s
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--direct", action="store_true",
                        help="run the direct public-call timings instead")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.perf_counter()
    if args.direct:
        import layers

        output: Dict[str, Any] = {"layer": layers.direct_timings(args.seed, args.scale)}
    else:
        output = measure(args.workload, args.seed, args.scale, spawned_at,
                         args.profile)
    sys.stdout.flush()
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
