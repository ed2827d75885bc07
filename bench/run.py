"""The repo's benchmark: seven workloads, named metrics, medians with spread.

    PYTHONPATH=src python bench/run.py [--seed N]            every workload
    python bench/run.py --trace                               per-layer numbers
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                              one contract run

This process is the driver.  It never imports the program: it starts one
``child.py`` per (round, workload), one at a time, round-robin over the
selected workloads so host drift lands on every workload equally, and
reports each metric of ``BENCHMARK.json`` by name with its unit as
median / q1 / q3 / n over the rounds.  Times are in reference-host
seconds: each child times its work beside a fixed reference kernel
(``reference.py``), so the shared host's changing speed divides out; the
raw times are printed beside them.  With ``--seconds`` the rounds are
time-boxed (never fewer than three); without it ``--rounds`` fixes them.

With a single ``--workload`` the last line of standard output is the
contract's result object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics, or with ``--trace 1`` the per-layer
ones.  The exit code is non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import layers
from stats import BENCH_DIR, OUT_DIR, ROOT, load_contract, summarise

SCHEMA = "netco-bench-v1"
CHILD = BENCH_DIR / "child.py"
SMOKE_SCALE = 0.1
MIN_ROUNDS = 3  # a time box never cuts below this
CHILD_TIMEOUT_S = 170  # under the contract's 180 s per run

#: workload whose round-1 simulated record another workload's must equal
FINGERPRINT_REFERENCE = {"des_udp_central3_train32": "des_udp_central3"}


class ChildFailed(RuntimeError):
    pass


def spawn(arguments: List[str]) -> Dict[str, Any]:
    """Run one child to completion and parse the sample it prints."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    command = [sys.executable, str(CHILD), *arguments,
               "--spawned-at", repr(time.perf_counter())]
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise ChildFailed(
            f"{' '.join(arguments)} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment(scale: float) -> Dict[str, Any]:
    """What every output carries about the host it was measured on."""
    nproc = os.cpu_count() or 1
    load_1m = os.getloadavg()[0]
    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        if found.returncode == 0:
            commit = found.stdout.strip()
    return {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": nproc,
        "load_1m": load_1m,
        # a busy host is reported, and marked, not hidden
        "noisy": load_1m > nproc / 2,
        "calibration_us": layers.calibration_us(scale),
    }


# ----------------------------------------------------------------------
# the end-to-end pass
# ----------------------------------------------------------------------
def run_rounds(names: List[str], seed: int, scale: float, rounds: int,
               seconds: Optional[float]) -> Dict[str, List[dict]]:
    """Round-robin children; ``{workload: [sample per round]}``."""
    samples: Dict[str, List[dict]] = {name: [] for name in names}
    spent = {name: 0.0 for name in names}
    last = {name: 0.0 for name in names}

    def child(name: str, charge: str) -> dict:
        start = time.perf_counter()
        sample = spawn(["--workload", name, "--seed", str(seed), "--scale", repr(scale)])
        last[charge] = time.perf_counter() - start
        spent[charge] += last[charge]
        return sample

    references: Dict[str, str] = {}
    for name in names:
        reference = FINGERPRINT_REFERENCE.get(name)
        if reference is not None and reference not in names:
            # the reference is not being measured: run it once, untimed
            references[name] = child(reference, charge=name)["fingerprint"]

    round_no = 0
    while True:
        round_no += 1
        ran = False
        for name in names:
            if seconds is None:
                wanted = round_no <= rounds
            else:
                wanted = round_no <= MIN_ROUNDS or spent[name] + last[name] <= seconds
            if wanted:
                samples[name].append(child(name, charge=name))
                ran = True
        if not ran:
            break
    for name in names:
        reference = FINGERPRINT_REFERENCE.get(name)
        if reference is not None:
            expected = references.get(name) or samples[reference][0]["fingerprint"]
            for sample in samples[name]:
                sample["expected_fingerprint"] = expected
    return samples


def aggregate(contract: dict, rounds: List[dict]) -> Dict[str, Any]:
    """Fold one workload's rounds into medians and failure counts."""
    expected = rounds[0].get("expected_fingerprint", rounds[0]["fingerprint"])
    attempted = failed = 0
    for sample in rounds:
        attempted += sample["attempted"]
        # a round whose simulated record differs counts as wholly failed
        same = sample["fingerprint"] == expected
        failed += sample["failed"] if same else sample["attempted"]
    metrics = {}
    for metric in contract["end_to_end"]:
        values = [sample["metrics"][metric["name"]] for sample in rounds]
        metrics[metric["name"]] = {"unit": metric["unit"], "samples": values,
                                   **summarise(values)}
    return {
        "op": rounds[0]["op"],
        "metrics": metrics,
        # as the clock read them, and how slow the host was: not metrics
        "raw": {key: statistics.median(sample["raw"][key] for sample in rounds)
                for key in rounds[0]["raw"]},
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "sim_fingerprint": rounds[0]["fingerprint"],
        "round_fingerprints": [sample["fingerprint"] for sample in rounds],
        "counts": rounds[0]["counts"],
    }


def print_end_to_end(name: str, result: Dict[str, Any]) -> None:
    print(f"\n== {name}  (op = {result['op']})")
    for metric, row in result["metrics"].items():
        print(f"  {metric:<16} {row['unit']:<4} median {row['median']:<12.6g} "
              f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} n {row['n']}")
    print(f"  {'failed_share':<16} {'':<4} {result['failed_share']:.6g}  "
          f"({result['failed']} of {result['attempted']} operations)")
    raw = result["raw"]
    print(f"  raw medians: setup {raw['setup_s']:.4g} s  wall "
          f"{raw['wall_s']:.4g} s  on a host {raw['host_slowdown']:.3g}x "
          f"as slow as the reference host")
    counts = "  ".join(f"{key} {value}" for key, value in result["counts"].items())
    print(f"  exact: {counts}")
    print(f"  sim_fingerprint {result['sim_fingerprint']}")


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------
def run_traced(contract: dict, names: List[str], seed: int, scale: float) -> tuple:
    """One profiled child per workload, then the direct timings once;
    ``(results, direct)`` with the direct timings folded into every
    workload's ``layer`` table as well."""
    declared = [metric["name"] for metric in contract["per_layer"]]
    results: Dict[str, Any] = {}
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        sample = spawn(["--workload", name, "--seed", str(seed),
                        "--scale", repr(scale), "--profile"])
        results[name] = sample
        with open(OUT_DIR / f"trace_{name}.json", "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, "workload": name, "seed": seed,
                       "scale": scale, "spans": sample["spans"],
                       "layers": sample["layer"], "counts": sample["counts"]},
                      fh, indent=1)
            fh.write("\n")
    direct = spawn(["--direct", "--seed", str(seed), "--scale", repr(scale)])["layer"]
    for name, sample in results.items():
        # a layer metric no child reported is a layer that did no work
        measured = {**direct, **sample["layer"]}
        sample["layer"] = {key: measured.get(key, 0.0) for key in declared}
        undeclared = sorted(set(measured) - set(declared))
        if undeclared:
            raise RuntimeError(f"undeclared per-layer metrics: {undeclared}")
    return results, direct


def print_traced(name: str, sample: Dict[str, Any], units: Dict[str, str]) -> None:
    layer = sample["layer"]
    print(f"\n== {name}  (op = {sample['op']}, traced once; "
          f"trace.overhead_ratio {layer['trace.overhead_ratio']:.3g})")
    rows = [(layer[f"{key}.self_us_per_op"], key) for key in layers.LAYERS]
    total = sum(self_us for self_us, _key in rows) or 1.0
    print(f"  {'layer':<20} {'self_us_per_op':>16} {'share':>7} {'calls_per_op':>14}")
    for self_us, key in sorted(rows, reverse=True):
        print(f"  {key:<20} {self_us:>16.4f} {self_us / total:>7.1%} "
              f"{layer[f'{key}.calls_per_op']:>14.4f}")
    for key, value in layer.items():
        if key.startswith("live.") and value:
            print(f"  {key:<28} {value:.6g} {units[key]}")
    print(f"  spans: {OUT_DIR.relative_to(ROOT)}/trace_{name}.json")


def print_direct(direct: Dict[str, float], units: Dict[str, str]) -> None:
    print("\n== direct public-call timings (median of >=5 loops of >=50 ms)")
    for key, value in direct.items():
        print(f"  {key:<40} {value:>12.4f} {units[key]}")


# ----------------------------------------------------------------------
# outputs
# ----------------------------------------------------------------------
def ledger_line(env: Dict[str, Any], seed: int, results: Dict[str, Any]) -> str:
    """One trajectory line: environment plus every end-to-end median and
    IQR.  The ledger itself lives outside ``bench/`` (see README)."""
    return json.dumps({
        "schema": SCHEMA,
        **env,
        "seed": seed,
        "workloads": {
            name: {
                "failed_share": result["failed_share"],
                **{metric: {"median": row["median"], "iqr": row["q3"] - row["q1"]}
                   for metric, row in result["metrics"].items()},
            }
            for name, result in results.items()
        },
    }, sort_keys=True)


def contract_line(contract: dict, trace: bool, attempted: int, failed: int,
                  values: Dict[str, float]) -> str:
    declared = contract["per_layer"] if trace else contract["end_to_end"]
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in declared},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds the testbed seed and the live payload generator")
    parser.add_argument("--rounds", type=int, default=None,
                        help="samples per workload (default 5, 2 with --smoke)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"time-box each workload's rounds (at least {MIN_ROUNDS})")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer numbers from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tenth-size inputs: checks the plumbing, not the speed")
    parser.add_argument("--json", metavar="PATH", help="write the full result here")
    parser.add_argument("--append", metavar="PATH",
                        help="append one trajectory line (medians and IQRs) here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = load_contract()
    declared = [workload["name"] for workload in contract["workloads"]]
    names = args.workload or declared
    scale = SMOKE_SCALE if args.smoke else 1.0
    rounds = args.rounds or (2 if args.smoke else 5)
    units = {metric["name"]: metric["unit"]
             for metric in contract["end_to_end"] + contract["per_layer"]}

    env = environment(scale)
    print(f"bench: commit {env['commit']}  python {env['python']}  "
          f"nproc {env['nproc']}  load_1m {env['load_1m']:.2f}"
          f"{'  NOISY' if env['noisy'] else ''}  "
          f"calibration_us {env['calibration_us']:.3f}  seed {args.seed}  "
          f"scale {scale}")
    try:
        if args.trace:
            results, direct = run_traced(contract, names, args.seed, scale)
        else:
            samples = run_rounds(names, args.seed, scale, rounds, args.seconds)
            results = {name: aggregate(contract, samples[name]) for name in names}
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name in names:
        if args.trace:
            print_traced(name, results[name], units)
        else:
            print_end_to_end(name, results[name])
    if args.trace:
        print_direct(direct, units)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, "env": env, "seed": args.seed,
                       "scale": scale, "trace": args.trace,
                       "workloads": results}, fh, indent=1)
            fh.write("\n")
    if args.append and not args.trace:
        with open(args.append, "a", encoding="utf-8") as fh:
            fh.write(ledger_line(env, args.seed, results) + "\n")

    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    print(f"\nbench: {failed} of {attempted} operations failed")
    if len(names) == 1:
        result = results[names[0]]
        values = result["layer"] if args.trace else {
            metric: row["median"] for metric, row in result["metrics"].items()}
        print(contract_line(contract, bool(args.trace), attempted, failed, values))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
