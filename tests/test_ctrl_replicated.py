"""End-to-end tests for the replicated control plane (repro.ctrl).

The headline acceptance criteria live here: with k=3 and one lying
replica, zero malicious flow-mods reach any switch, the liar is
quarantined, and the data-plane outcome is bit-identical to an
unreplicated run on the same seed.
"""

import pytest

from repro.adversary.catalogue import BOGUS_PORT
from repro.analysis.tasks import ctrl_run
from repro.ctrl.compare import ControlCompare, ControlCompareConfig
from repro.ctrl.replicated import CompromisePlan, ReplicatedControlPlane
from repro.net.addresses import MacAddress
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.openflow.actions import Output
from repro.openflow.controller import Controller
from repro.openflow.match import Match
from repro.openflow.messages import FLOWMOD_ADD, FlowMod, PacketOut
from repro.scenarios.ctrlplane import CtrlParams, build_ctrl_testbed
from repro.sim.engine import Simulator

SEED = 1
RUN_KW = dict(variant="central3", duration=0.03, rate_mbps=10.0)


def run(ctrl_k, adversary="none", seed=SEED, **kw):
    return ctrl_run(seed=seed, ctrl_k=ctrl_k, adversary=adversary, **{**RUN_KW, **kw})


class TestBitIdentity:
    def test_k3_matches_unreplicated_run(self):
        solo = run(ctrl_k=1)
        voted = run(ctrl_k=3)
        assert solo["sent"] == voted["sent"]
        assert solo["data_fingerprint"] == voted["data_fingerprint"]
        assert voted["lost"] == 0
        # and the voter really was in the loop for k=3 but not k=1
        assert solo["ctrl"]["submissions"] == 0
        assert voted["ctrl"]["submissions"] > 0
        assert voted["ctrl"]["released"] > 0

    def test_same_seed_is_deterministic(self):
        a = run(ctrl_k=3, adversary="lying")
        b = run(ctrl_k=3, adversary="lying")
        assert a == b


class TestLyingReplica:
    def test_zero_malicious_flow_mods_installed(self):
        rec = run(ctrl_k=3, adversary="lying")
        assert rec["malicious_emitted"] > 0  # the liar did lie
        assert rec["malicious_installed"] == 0  # ...to no effect
        assert rec["ctrl"]["malicious_released"] == 0
        assert rec["lost"] == 0

    def test_liar_is_quarantined_with_latency_recorded(self):
        rec = run(ctrl_k=3, adversary="lying")
        assert rec["ctrl_quarantined"] == [1]
        assert rec["detection_latency"] is not None
        assert 0.0 <= rec["detection_latency"] < 0.02
        # still lying through probation: never readmitted
        assert rec["ctrl_readmitted"] == []
        assert rec["ctrl"]["probation_resets"] > 0

    def test_data_plane_unaffected_by_masked_liar(self):
        clean = run(ctrl_k=3)
        lying = run(ctrl_k=3, adversary="lying")
        assert lying["data_fingerprint"] == clean["data_fingerprint"]

    def test_unreplicated_liar_installs_its_lies(self):
        # The contrast row: k=1 has no voter, so the lies land.
        rec = run(ctrl_k=1, adversary="lying")
        assert rec["malicious_installed"] == rec["malicious_emitted"] > 0
        assert rec["lost"] > 0


class TestCrashedReplica:
    def test_crash_is_masked_detected_and_healed(self):
        # restart_at=0.030 + a probation window must fit inside the run
        rec = run(ctrl_k=3, adversary="crash", duration=0.045)
        assert rec["lost"] == 0
        assert rec["malicious_installed"] == 0
        assert rec["ctrl_quarantined"] == [1]
        assert rec["ctrl_readmitted"] == [1]  # restarted, probation served

    def test_crash_does_not_change_data_plane(self):
        clean = run(ctrl_k=3)
        crash = run(ctrl_k=3, adversary="crash")
        assert crash["data_fingerprint"] == clean["data_fingerprint"]


class TestPassThrough:
    def test_k1_bypasses_the_voter_entirely(self):
        tb = build_ctrl_testbed("central3", ctrl=CtrlParams(ctrl_k=1), seed=0)
        seen = []
        tb.control_plane.compare.submit = lambda *a, **kw: seen.append(a)
        tb.network.run(until=0.002)
        assert seen == []
        assert tb.quarantine is None  # no quarantine controller at k=1


class TestReplicaApi:
    def _plane(self, k=3):
        sim = Simulator()
        return ReplicatedControlPlane(
            sim, lambda index, name: Controller(sim, name=name), k=k
        )

    def test_replica_index_resolution(self):
        plane = self._plane()
        assert plane.replica_index(2) == 2
        assert plane.replica_index("c1") == 1
        assert plane.replica_index("ctrl_c0") == 0
        with pytest.raises(KeyError):
            plane.replica_index(3)
        with pytest.raises(KeyError):
            plane.replica_index("c9")

    def test_crash_restart_idempotent(self):
        plane = self._plane()
        plane.crash_replica("c1")
        plane.crash_replica("c1")
        assert plane.replicas[1].crashed
        plane.restart_replica(1)
        plane.restart_replica(1)
        assert not plane.replicas[1].crashed

    def test_compromise_validation(self):
        plane = self._plane()
        with pytest.raises(ValueError):
            plane.compromise_replica(0, strategy="nope")
        with pytest.raises(ValueError):
            plane.compromise_replica(0, lie_every=0)
        plane.compromise_replica(0, strategy="priority")
        assert plane.replicas[0].compromise.strategy == "priority"
        plane.restore_replica(0)
        plane.restore_replica(0)
        assert plane.replicas[0].compromise is None

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            self._plane(k=0)


def _mod(port=2):
    return FlowMod(
        command=FLOWMOD_ADD,
        match=Match(dl_dst=MacAddress.from_index(2)),
        actions=[Output(port)],
        priority=10,
    )


class TestCompromisePlan:
    def test_blackhole_taints_and_rewrites(self):
        plan = CompromisePlan(strategy="blackhole")
        mutated, tainted = plan.apply(_mod(), now=0.0)
        assert tainted
        assert mutated.actions[0].port == BOGUS_PORT

    def test_suppress_withholds(self):
        plan = CompromisePlan(strategy="suppress")
        mutated, tainted = plan.apply(_mod(), now=0.0)
        assert tainted and mutated is None

    def test_lie_every_paces_the_campaign(self):
        plan = CompromisePlan(strategy="priority", lie_every=3)
        verdicts = [plan.apply(_mod(), now=0.0)[1] for _ in range(6)]
        assert verdicts == [False, False, True, False, False, True]
        assert plan.lies_told == 2

    def test_until_bounds_the_campaign(self):
        plan = CompromisePlan(strategy="blackhole", until=1.0)
        assert plan.apply(_mod(), now=0.5)[1]
        assert not plan.apply(_mod(), now=1.0)[1]

    def test_packet_outs_pass_clean(self):
        plan = CompromisePlan(strategy="blackhole")
        out = PacketOut(packet=None, actions=[Output(1)], in_port=2, buffer_id=1)
        mutated, tainted = plan.apply(out, now=0.0)
        assert mutated is out and not tainted


class TestCtrlMetrics:
    """Satellites: queue-drop/unknown-message counters plus the voter's
    vote/blocked counts and latency histogram, all published at
    construction."""

    def test_controller_queue_drops_counter(self):
        with use_registry(MetricsRegistry(enabled=True)) as registry:
            sim = Simulator()
            ctrl = Controller(sim, name="busy", proc_time=1.0, queue_capacity=1)
            ctrl.receive_from_switch(None, object())
            ctrl.receive_from_switch(None, object())  # queue full -> drop
        assert ctrl.messages_dropped == 1
        samples = registry.samples()
        assert samples['controller_queue_drops_total{controller="busy"}'] == 1

    def test_controller_unknown_message_counter(self):
        with use_registry(MetricsRegistry(enabled=True)) as registry:
            sim = Simulator()
            ctrl = Controller(sim, name="plain")
            ctrl.receive_from_switch(None, object())
        samples = registry.samples()
        assert samples['controller_unknown_messages_total{controller="plain"}'] == 1

    def test_vote_blocked_and_latency_metrics(self):
        with use_registry(MetricsRegistry(enabled=True)) as registry:
            sim = Simulator()
            compare = ControlCompare(
                sim, ControlCompareConfig(k=3, vote_timeout=0.01), name="cc"
            )
            compare.register_switch(1, lambda message: None)
            compare.submit(0, 1, _mod())
            compare.submit(1, 1, _mod())  # quorum -> released
            compare.submit(2, 1, _mod(port=BOGUS_PORT))  # minority lie
            sim.run(until=0.05)
        samples = registry.samples()
        assert samples['ctrl_submissions_total{compare="cc"}'] == 3
        assert samples['ctrl_blocked_no_quorum_total{compare="cc"}'] == 1
        latency = samples['ctrl_vote_latency_seconds{compare="cc"}']
        assert latency["count"] == 1

    def test_metrics_disabled_by_default(self):
        import gc
        import weakref

        from repro.obs.metrics import active_registry

        sim = Simulator()
        ctrl = Controller(sim, name="dark")
        ctrl.receive_from_switch(None, object())
        assert ctrl.messages_unknown == 1  # counted locally all the same
        assert active_registry().samples() == {}
        # the disabled registry kept no reader, so nothing pins the component
        ref = weakref.ref(ctrl)
        del ctrl
        gc.collect()
        assert ref() is None
