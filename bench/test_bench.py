"""The benchmark's own checks: ``python -m pytest bench -q`` (about 20 s).

Everything runs at ``--smoke`` size, so nothing here asserts a speed —
only that every declared name is emitted with its unit and nothing else
is, that simulated records repeat, that the hop counter is right, and
that a run which must fail does fail.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import reference
from compare import verdict
from stats import BENCH_DIR, OUT_DIR, load_contract

CONTRACT = load_contract()
END_TO_END = {metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def run_bench(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", *arguments],
        capture_output=True, text=True, timeout=120,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = run_bench("--json", str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_every_declared_end_to_end_name_is_emitted_and_nothing_else(smoke):
    assert list(smoke["workloads"]) == WORKLOADS
    for name, result in smoke["workloads"].items():
        emitted = {metric: row["unit"] for metric, row in result["metrics"].items()}
        assert emitted == END_TO_END, name
        assert result["failed"] == 0 and result["attempted"] >= 1, name
        for row in result["metrics"].values():
            assert row["n"] == 2 and row["median"] > 0
    for key in ("calibration_us", "python", "nproc", "load_1m", "noisy", "commit"):
        assert key in smoke["env"]


def test_simulated_records_repeat_and_train32_equals_train1(smoke):
    for name, result in smoke["workloads"].items():
        first, *rest = result["round_fingerprints"]
        assert all(fingerprint == first for fingerprint in rest), name
    per_packet = smoke["workloads"]["des_udp_central3"]
    train32 = smoke["workloads"]["des_udp_central3_train32"]
    assert train32["sim_fingerprint"] == per_packet["sim_fingerprint"]
    # the same record by another path: 32-packet trains, far fewer events
    assert train32["counts"]["events"] < per_packet["counts"]["events"] / 10


def test_hop_counter_matches_an_independent_count(smoke):
    # linespeed is h1 - s1 - r3 - s2 - h2: every datagram the receiver
    # counted crossed exactly four links, and nothing else is on the wire
    counts = smoke["workloads"]["des_udp_linespeed"]["counts"]
    assert counts["received"] == counts["sent"] > 0
    assert counts["hops"] == 4 * counts["received"]


def test_traced_run_emits_every_per_layer_name():
    done = run_bench("--workload", "des_udp_linespeed", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    line = result_line(done)
    emitted = {metric: value["unit"] for metric, value in line["metrics"].items()}
    assert emitted == PER_LAYER
    value = {metric: row["value"] for metric, row in line["metrics"].items()}
    # bare forwarding: the voters and the batch tier do no work
    for idle in ("core.compare", "core.votes", "ctrl.compare", "sim.realm"):
        assert value[f"{idle}.calls_per_op"] == 0, idle
    assert value["sim.engine.calls_per_op"] > 0
    assert value["trace.overhead_ratio"] > 1
    assert value["core.compare.submit_faulty_us"] > 0
    with open(OUT_DIR / "trace_des_udp_linespeed.json", encoding="utf-8") as fh:
        spans = {span["name"] for span in json.load(fh)["spans"]}
    assert {"import", "build", "warmup", "run", "collect"} <= spans


def test_a_starved_vote_fails_the_run():
    # k=2 with one branch silent: the quorum of two is never met, so no
    # packet may be released and the run must say so
    done = run_bench("--workload", "live_udp_vote_starved", "--rounds", "1")
    assert done.returncode != 0
    line = result_line(done)
    assert set(line["metrics"]) == set(END_TO_END)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0


def test_times_are_normalised_by_the_reference_kernel(smoke):
    # a host half as fast reads the same; a program twice as slow reads double
    assert reference.normalise(2.0, 2 * reference.NOMINAL_S) == pytest.approx(1.0)
    meter = reference.Meter()
    for _ in range(3):
        meter.tick()
    assert len(meter.slices) == 2 and len(meter.references) == 3
    for raw, steady in meter.slices:  # the kernel's own time is left out
        assert 0 <= raw < min(meter.references) and steady >= 0
    # every run says what the clock read and how slow the host was
    for name, result in smoke["workloads"].items():
        raw, steady = result["raw"], result["metrics"]["wall_s"]["median"]
        assert raw["wall_s"] > 0 and raw["setup_s"] > 0, name
        assert steady == pytest.approx(raw["wall_s"] / raw["host_slowdown"], rel=0.5)


def test_compare_verdicts():
    lower = {"name": "wall_s", "better": "lower", "bound": 0.10}
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert verdict(lower, base, [x * 1.005 for x in base]) == "unchanged"
    assert verdict(lower, base, [x * 0.80 for x in base]) == "improved"
    assert verdict(lower, base, [x * 1.30 for x in base]) == "regressed"
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9]
    assert verdict(lower, noisy, [x * 1.05 for x in noisy]) == "unresolved"
    higher = {"name": "rate", "better": "higher", "bound": 0.10}
    assert verdict(higher, base, [x * 0.70 for x in base]) == "regressed"
