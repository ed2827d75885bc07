"""Train=1 vs train=32 equivalence: the batch tier's exactness contract.

The packet-train tier must be an *invisible* optimisation: for the same
seed, every observable of a run — flow results, combiner verdicts,
quarantine transitions, alarms, figure records, RunReport metrics — is
bit-identical whether packets move one per event or 32 per train.  These
tests drive that contract across 24 seeds on fig5-style combiner runs
**with live chaos schedules** (a router crash and a Gilbert–Elliott loss
burst mid-run), where the exactness boundaries (vote splits, fault
windows, per-packet loss draws) are all exercised at once.
"""

import pytest

from repro.analysis.tasks import chaos_run
from repro.chaos.schedule import FaultSchedule, LossBurst, RouterCrash

SEEDS = list(range(24))

#: crash branch 0's router mid-flow (it restarts), and turn branch 1's
#: egress link bursty-lossy across the middle of the run — both fault
#: windows overlap live traffic
CHAOS_SCHEDULE = FaultSchedule(
    [
        RouterCrash(0.010, "r0", restart_at=0.025),
        LossBurst(
            0.012,
            "link_b1",
            until=0.032,
            p_good_to_bad=0.2,
            p_bad_to_good=0.3,
            loss_bad=0.7,
        ),
    ],
    name="batch-equivalence",
).to_dict()


def _run(seed: int, variant: str, train: int) -> dict:
    return chaos_run(
        CHAOS_SCHEDULE,
        seed=seed,
        variant=variant,
        duration=0.04,
        rate_mbps=40.0,
        params={"batch_train": train} if train > 1 else None,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_identical_across_train(seed):
    variant = "central3" if seed % 2 == 0 else "central5"
    legacy = _run(seed, variant, train=1)
    batched = _run(seed, variant, train=32)
    # the full survivability record: flow accounting, injected fault
    # timeline, quarantine/readmit verdicts, alarms, compare stats
    assert batched == legacy


#: the advbench rows each seed has always run (seed % 8), spelled out so
#: that rows joining the sweep do not move a seed onto another adversary
PINNED_ADV_ROWS = (
    "sampled_p001",
    "sampled_p01",
    "sampled_p1",
    "probation_evader",
    "sweep_timed",
    "path_inconsistency",
    "colluding_minority",
    "colluding_quorum",
)


@pytest.mark.parametrize("seed", SEEDS)
def test_adversary_run_identical_across_train(seed):
    """The batch tier must not perturb detection-latency records either:
    alarm times, quarantine transitions, leak/masked-damage accounting
    are bit-identical with 32-packet trains, for every strategy."""
    from repro.analysis.tasks import adversary_run

    adversary = PINNED_ADV_ROWS[seed % len(PINNED_ADV_ROWS)]
    variant = "central5" if adversary.startswith("colluding") else "central3"

    def run(train):
        return adversary_run(
            seed=seed,
            variant=variant,
            adversary=adversary,
            profile="vigilant",
            duration=0.02,
            activate_at=0.004,
            params={"batch_train": train} if train > 1 else None,
        )

    assert run(32) == run(1)


def _strip_internal(metrics: dict) -> dict:
    """Drop scheduler-internal accounting, keep every observable metric.

    ``sim_*`` (event counts differ by construction: trains collapse
    outer events into micro-events), ``trace_records_*`` (batch.merge /
    batch.split records exist only in batched runs), ``batch*`` (the
    tier's own counters) and ``transport_session_*`` (a train packet
    goes port to port and never crosses a ``Session``; exported since
    the session counters are published) are the *only* keys allowed to
    differ.
    """
    return {
        key: value
        for key, value in metrics.items()
        if not key.startswith(
            ("sim_", "trace_records_", "batch", "transport_session_")
        )
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_report_identical_across_train(seed):
    from repro.obs.summary import build_run_report

    report1, _ = build_run_report(
        quick=True, seed=seed, sample_rate=0.25, train=1
    )
    report32, _ = build_run_report(
        quick=True, seed=seed, sample_rate=0.25, train=32
    )
    assert report32.records == report1.records
    assert report32.spans == report1.spans
    assert _strip_internal(report32.metrics) == _strip_internal(report1.metrics)
    # and the batched run really used the batch tier
    batched = [
        v for k, v in report32.metrics.items() if k.startswith("batches_total")
    ]
    assert batched and sum(batched) > 0
