"""Detection-latency property suite: the advbench safety contract.

Three claims, each driven across 24 seeds per adversary strategy (4 per
static Section II behaviour, whose only randomness is the flow's); the
first two on every realisation of the combiner that can outvote a
branch (the Section V chain, the Section IX coarse-grained combiner, the
Section VII virtualized one and the Section VI shielded router):

1. **No masked damage below quorum.**  While an honest quorum holds, no
   tampered wire image is ever released to the receiver, no attack-window
   packet is lost to the adversary before quarantine, and no honest
   branch is quarantined — for *every* advbench row below quorum,
   including the colluding minority that stays forever silent.
2. **Bounded time-to-alarm.**  Strategies whose tamper volume exceeds the
   vigilant profile's thresholds (probation evader, sweep-timed,
   path-inconsistency) are alarmed on and quarantined within a fixed
   horizon of activation.
3. **Honest runs never false-quarantine.**  With the strategy scheduled
   after the run ends (a benign control), the quarantine log stays empty.

The colluding-*quorum* row is the deliberate negative control: once the
adversary holds a vote majority the combiner is beaten by construction,
damage is admitted, and nothing alarms — the table documents the
boundary rather than pretending to detect past it.
"""

import functools

import pytest

from repro.adversary.catalogue import DATA, ONE, QUORUM, ROWS, entry
from repro.adversary.strategies import ScheduledStrategy
from repro.analysis.tasks import adversary_run

SEEDS = list(range(24))

#: max allowed (quarantine time - activation time) on the vigilant
#: profile; worst strategy observed is path_inconsistency at ~11.1 ms
HORIZON = 0.015

#: strategies whose tamper rate exceeds vigilant thresholds -> must be
#: caught within HORIZON
ABOVE_THRESHOLD = ("probation_evader", "sweep_timed", "path_inconsistency")

ADVBENCH_ROWS = ROWS[DATA].values()

#: collusion rows need k=5 so a >1-branch minority exists below quorum
COLLUSION = tuple(row.name for row in ADVBENCH_ROWS if row.placement != ONE)

SUB_QUORUM = tuple(row.name for row in ADVBENCH_ROWS if row.placement != QUORUM)

#: a scheduled strategy draws from its own stream: 24 seeds; a static
#: behaviour is deterministic given the flow: 4
SEEDS_OF = {
    row.name: SEEDS
    if issubclass(entry(DATA, row.entry).cls, ScheduledStrategy) else SEEDS[:4]
    for row in ADVBENCH_ROWS
}

#: the realisations claims 1 and 2 run on.  "central" is central3, or
#: central5 for the collusion rows; at k = 3 (transport3, virtual3,
#: fattree_shielded3) a colluding minority is the single branch r0.
REALISATIONS = ("central", "transport3", "virtual3", "fattree_shielded3")


def realisation_grid(adversaries):
    """``(variant, adversary, seed)`` cases; the Section V rows keep the
    ids they had before the other realisations joined them."""
    return [
        pytest.param(
            variant, adversary, seed,
            id=(f"{adversary}-{seed}" if variant == "central"
                else f"{variant}-{adversary}-{seed}"),
        )
        for variant in REALISATIONS
        for adversary in adversaries
        for seed in SEEDS_OF[adversary]
    ]


@functools.lru_cache(maxsize=None)
def record(adversary: str, seed: int, activate_at: float = 0.004,
           variant: str = "central") -> dict:
    """One cached advbench record; each (adversary, seed, variant) runs
    once."""
    if variant == "central":
        variant = "central5" if adversary in COLLUSION else "central3"
    return adversary_run(
        seed=seed,
        variant=variant,
        adversary=adversary,
        profile="vigilant",
        duration=0.02,
        activate_at=activate_at,
    )


# ----------------------------------------------------------------------
# 1. safety below quorum
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant, adversary, seed", realisation_grid(SUB_QUORUM))
def test_no_masked_damage_below_quorum(variant, adversary, seed):
    rec = record(adversary, seed, variant=variant)
    assert rec["masked_damage"] == 0
    assert rec["packets_leaked_before_quarantine"] == 0
    assert rec["false_quarantines"] == 0
    assert rec["false_quarantine_rate"] == 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_colluding_minority_is_silent_but_harmless(seed):
    # m = quorum-1 identical wrong images never outvote the honest
    # majority, and never trip a single-source alarm either: documented
    # evasion, bounded to zero damage by the vote policy alone.
    rec = record("colluding_minority", seed)
    assert rec["tampered"] > 0
    assert rec["masked_damage"] == 0
    assert rec["packets_leaked_before_quarantine"] == 0


# ----------------------------------------------------------------------
# 2. bounded time-to-alarm above threshold
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "variant, adversary, seed", realisation_grid(ABOVE_THRESHOLD))
def test_above_threshold_alarms_within_horizon(variant, adversary, seed):
    rec = record(adversary, seed, variant=variant)
    assert rec["tampered"] > 0
    assert rec["time_to_first_alarm"] is not None
    assert rec["detection_latency"] is not None
    assert rec["time_to_first_alarm"] <= rec["detection_latency"]
    assert rec["detection_latency"] <= HORIZON
    # the quarantined branch really is the adversarial one
    assert set(rec["quarantined"]) & set(rec["adversary_branches"])


@pytest.mark.parametrize("seed", SEEDS)
def test_probation_evader_completes_evasion_cycle(seed):
    # the evader goes quiet once quarantined, rides probation back in --
    # both transitions must appear in the record
    rec = record("probation_evader", seed)
    assert rec["quarantined"]
    assert rec["readmitted"]


@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_corruption_alarm_follows_tampering(seed):
    # a single-branch corrupt copy always surfaces as a single-source
    # expiry eventually, so tampering and alarming coincide
    rec = record("sampled_p1", seed)
    if rec["tampered"]:
        assert rec["time_to_first_alarm"] is not None


# ----------------------------------------------------------------------
# 3. honest control: false-quarantine rate exactly 0
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_honest_run_never_quarantines(seed):
    # activation scheduled after the run ends -> the strategy never
    # fires; an honest fleet must show a pristine quarantine log
    rec = record("sampled_p1", seed, activate_at=1.0)
    assert rec["tampered"] == 0
    assert rec["quarantined"] == []
    assert rec["false_quarantines"] == 0
    assert rec["false_quarantine_rate"] == 0.0
    assert rec["masked_damage"] == 0


# ----------------------------------------------------------------------
# negative control: at-quorum collusion is beyond the design point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_colluding_quorum_admits_damage(seed):
    rec = record("colluding_quorum", seed)
    assert rec["masked_damage"] > 0
    assert rec["packets_leaked_before_quarantine"] > 0
    assert rec["detection_latency"] is None
