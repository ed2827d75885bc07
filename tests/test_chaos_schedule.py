"""Unit tests for the chaos engine: event types, JSON round-trips,
deterministic compilation, and the link/switch fault hooks."""

import json

import pytest

from repro.chaos.schedule import (
    AdversaryStrategy,
    BandwidthDegrade,
    BehaviorOn,
    ChaosEngine,
    FaultSchedule,
    GilbertElliottLoss,
    LinkDown,
    LossBurst,
    RouterCrash,
    builtin_battery,
)
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.sim.rng import RngStreams


def two_switch_net(seed=5, rate_bps=None, loss=0.0):
    """h1 -- s1 -- s2 -- h2 with MAC forwarding installed."""
    from repro.openflow.switch import OpenFlowSwitch

    net = Network(seed=seed)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    s1 = net.add_node(OpenFlowSwitch(net.sim, "s1", trace_bus=net.trace))
    s2 = net.add_node(OpenFlowSwitch(net.sim, "s2", trace_bus=net.trace))
    net.connect(h1, s1)
    net.connect(s1, s2, rate_bps=rate_bps, loss=loss)
    net.connect(s2, h2)
    for sw, nxt_h2, nxt_h1 in ((s1, "s2", "h1"), (s2, "h2", "s1")):
        sw.install(Match(dl_dst=h2.mac), [Output(net.port_no_between(sw.name, nxt_h2))])
        sw.install(Match(dl_dst=h1.mac), [Output(net.port_no_between(sw.name, nxt_h1))])
    return net, h1, h2, s1, s2


def blast(net, h1, h2, count=20, start=0.0, spacing=1e-3):
    """Schedule `count` spaced UDP datagrams h1 -> h2; return recv list."""
    got = []
    h2.bind_udp(7, lambda p: got.append(p))

    def send(i):
        p = Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 7, 7,
                       payload=bytes([i]) * 20, ident=i)
        h1.send(p)

    for i in range(count):
        net.sim.schedule_at(start + i * spacing, lambda i=i: send(i))
    return got


# ----------------------------------------------------------------------
# schedule serialisation
# ----------------------------------------------------------------------
class TestScheduleFormat:
    def test_json_round_trip(self):
        for schedule in builtin_battery().values():
            d = schedule.to_dict()
            again = FaultSchedule.from_dict(d)
            assert again.to_dict() == d
            assert FaultSchedule.from_json(json.dumps(d)).to_dict() == d

    def test_events_sorted_by_time(self):
        s = FaultSchedule([LinkDown(0.5, "l"), RouterCrash(0.1, "r")])
        assert [e.time for e in s] == [0.1, 0.5]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule.from_dict(
                {"events": [{"kind": "meteor_strike", "time": 0.1, "target": "x"}]}
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            FaultSchedule.from_dict(
                {"events": [{"kind": "link_down", "time": 0.1, "target": "x",
                             "sideways": True}]}
            )

    def test_validation_catches_bad_windows(self):
        with pytest.raises(ValueError, match="until"):
            FaultSchedule([LinkDown(0.5, "l", until=0.4)]).validate()
        with pytest.raises(ValueError, match="restart_at"):
            FaultSchedule([RouterCrash(0.5, "r", restart_at=0.5)]).validate()
        with pytest.raises(ValueError, match="behavior: unknown data-plane adversary"):
            FaultSchedule([BehaviorOn(0.1, "r", behavior="gremlin")]).validate()

    def test_adversary_strategy_round_trip(self):
        schedule = FaultSchedule(
            [
                AdversaryStrategy(0.002, "r1", strategy="sampled_corruption",
                                  rate=0.25, until=0.009),
                AdversaryStrategy(0.003, "r0", strategy="path_inconsistency",
                                  pace=3),
                AdversaryStrategy(0.004, "r2", strategy="sweep_timed",
                                  window=5e-4),
            ],
            name="strategies",
        )
        schedule.validate()
        d = schedule.to_dict()
        again = FaultSchedule.from_dict(d)
        assert again.to_dict() == d
        assert FaultSchedule.from_json(json.dumps(d)).to_dict() == d
        event = next(iter(again))
        assert isinstance(event, AdversaryStrategy)
        assert (event.strategy, event.rate, event.until) == (
            "sampled_corruption", 0.25, 0.009)

    def test_adversary_strategy_validation(self):
        with pytest.raises(
            ValueError, match="adversary_strategy: unknown data-plane adversary"
        ):
            FaultSchedule(
                [AdversaryStrategy(0.1, "r1", strategy="gremlin")]
            ).validate()
        with pytest.raises(ValueError, match="rate"):
            FaultSchedule(
                [AdversaryStrategy(0.1, "r1", rate=1.5)]
            ).validate()
        with pytest.raises(ValueError, match="pace"):
            FaultSchedule(
                [AdversaryStrategy(0.1, "r1", pace=0)]
            ).validate()
        with pytest.raises(ValueError, match="window"):
            FaultSchedule(
                [AdversaryStrategy(0.1, "r1", window=-1e-3)]
            ).validate()
        with pytest.raises(ValueError, match="until"):
            FaultSchedule(
                [AdversaryStrategy(0.1, "r1", until=0.1)]
            ).validate()

    def test_adversary_strategy_refuses_a_knob_its_entry_does_not_read(self):
        for name, knob in (("blackhole", {"rate": 0.1}),
                           ("reroute", {"pace": 3}),
                           ("drop", {"rate": 0.5}),
                           ("path_inconsistency", {"window": 1e-3})):
            with pytest.raises(ValueError, match=f"{name} does not read"):
                FaultSchedule(
                    [AdversaryStrategy(0.1, "r1", strategy=name, **knob)]
                ).validate()
        # a knob at its default, or one the entry reads, passes
        FaultSchedule([
            AdversaryStrategy(0.1, "r1", strategy="blackhole", rate=1.0, pace=1),
            AdversaryStrategy(0.2, "r1", strategy="probation_evader", rate=0.5, pace=2),
        ]).validate()

    def test_save_and_reload(self, tmp_path):
        path = str(tmp_path / "spec.json")
        schedule = builtin_battery()["crash_restart"]
        schedule.save(path)
        assert FaultSchedule.from_json_file(path).to_dict() == schedule.to_dict()


# ----------------------------------------------------------------------
# engine compilation & target resolution
# ----------------------------------------------------------------------
class TestEngine:
    def test_unresolvable_target_fails_at_arm_time(self):
        net, *_ = two_switch_net()
        engine = ChaosEngine(
            FaultSchedule([RouterCrash(0.01, "nonesuch")]), net
        )
        with pytest.raises(ValueError, match="no node named"):
            engine.arm()

    def test_link_target_must_be_a_link(self):
        net, *_ = two_switch_net()
        engine = ChaosEngine(FaultSchedule([LinkDown(0.01, "nonesuch")]), net)
        with pytest.raises(ValueError, match="no link named"):
            engine.arm()

    def test_aliases_resolve(self):
        net, _, _, s1, _ = two_switch_net()
        engine = ChaosEngine(
            FaultSchedule([RouterCrash(0.01, "victim")]),
            net,
            aliases={"victim": "s1"},
        )
        engine.arm()
        net.run(until=0.02)
        assert s1.failed
        assert engine.injections == [
            {"time": 0.01, "kind": "router_crash", "target": "victim"}
        ]

    def test_parallel_links_get_distinct_names_the_engine_resolves(self):
        net, _, _, s1, s2 = two_switch_net()
        parallel = [net.link("s1-s2"), net.connect(s1, s2), net.connect(s1, s2)]
        assert [link.name for link in parallel] == ["s1-s2", "s1-s2#2", "s1-s2#3"]
        engine = ChaosEngine(FaultSchedule([]), net)
        for link in parallel:
            assert engine.resolve_link(link.name) is link

    def test_network_refuses_a_duplicate_link_name(self):
        from repro.net.node import NetworkError
        from repro.openflow.switch import OpenFlowSwitch

        net = Network()
        a, ab, c, bc = (
            net.add_node(OpenFlowSwitch(net.sim, name))
            for name in ("a", "a-b", "c", "b-c")
        )
        net.connect(ab, c)
        with pytest.raises(NetworkError, match="duplicate link name 'a-b-c'"):
            net.connect(a, bc)
        assert not a.ports and not bc.ports  # refused before wiring

    def test_arm_twice_rejected(self):
        net, *_ = two_switch_net()
        engine = ChaosEngine(FaultSchedule([]), net)
        engine.arm()
        with pytest.raises(RuntimeError):
            engine.arm()

    def test_injection_log_and_traces(self):
        net, _, _, s1, _ = two_switch_net()
        net.trace.start_retaining()
        schedule = FaultSchedule(
            [LinkDown(0.005, "s1-s2", until=0.010), RouterCrash(0.015, "s1")],
            name="probe",
        )
        engine = ChaosEngine(schedule, net)
        engine.arm()
        net.run(until=0.05)
        kinds = [i["kind"] for i in engine.injections]
        assert kinds == ["link_down", "link_up", "router_crash"]
        topics = {r.topic for r in net.trace.select("chaos.*")}
        assert topics == {"chaos.link_down", "chaos.link_up", "chaos.router_crash"}


# ----------------------------------------------------------------------
# fault hooks end-to-end
# ----------------------------------------------------------------------
class TestLinkFaults:
    def test_link_down_window_drops_then_heals(self):
        net, h1, h2, *_ = two_switch_net()
        got = blast(net, h1, h2, count=20, spacing=1e-3)
        engine = ChaosEngine(
            FaultSchedule([LinkDown(0.0045, "s1-s2", until=0.0145)]), net
        )
        engine.arm()
        net.run(until=0.05)
        # datagrams 5..14 hit the dead window; the rest pass
        idents = sorted(p.ip.ident for p in got)
        assert idents == [0, 1, 2, 3, 4] + list(range(15, 20))
        link = next(l for l in net.links if l.name == "s1-s2")
        assert link.direction_stats(link.a).fault_drops == 10
        assert not link.is_down

    def test_bandwidth_degrade_and_restore(self):
        net, *_ = two_switch_net(rate_bps=1e6)
        link = next(l for l in net.links if l.name == "s1-s2")
        engine = ChaosEngine(
            FaultSchedule([BandwidthDegrade(0.001, "s1-s2", factor=0.25,
                                            until=0.002)]),
            net,
        )
        engine.arm()
        net.run(until=0.0015)
        assert link.rates_bps() == (0.25e6, 0.25e6)
        net.run(until=0.003)
        assert link.rates_bps() == (1e6, 1e6)

    def test_gilbert_elliott_is_deterministic(self):
        def draw(seed):
            model = GilbertElliottLoss(
                RngStreams(seed).stream("ge"), 0.3, 0.3, loss_bad=0.9
            )
            return [model() for _ in range(200)]

        assert draw(4) == draw(4)
        assert draw(4) != draw(5)
        assert any(draw(4))  # bursts actually lose packets
        assert not all(draw(4))

    def test_loss_burst_installs_and_clears_model(self):
        net, *_ = two_switch_net()
        link = next(l for l in net.links if l.name == "s1-s2")
        installed = []
        set_loss_model = link.set_loss_model

        def spy(model):
            installed.append((net.sim.now, model))
            set_loss_model(model)

        link.set_loss_model = spy
        engine = ChaosEngine(
            FaultSchedule(
                [LossBurst(0.001, "s1-s2", until=0.002, loss_bad=1.0)]
            ),
            net,
        )
        engine.arm()
        net.run(until=0.0015)
        assert [(t, callable(m)) for t, m in installed] == [(0.001, True)]
        net.run(until=0.003)
        assert installed[1:] == [(0.002, None)]


class TestSwitchFaults:
    def test_crash_wipes_flows_and_drops(self):
        net, h1, h2, s1, _ = two_switch_net()
        got = blast(net, h1, h2, count=10, spacing=1e-3)
        engine = ChaosEngine(FaultSchedule([RouterCrash(0.0035, "s1")]), net)
        engine.arm()
        net.run(until=0.05)
        assert s1.failed
        assert len(s1.table) == 0
        assert sorted(p.ip.ident for p in got) == [0, 1, 2, 3]
        assert s1.stats.dropped_failed == 6

    def test_restart_restores_flows_and_traffic(self):
        net, h1, h2, s1, _ = two_switch_net()
        got = blast(net, h1, h2, count=10, spacing=1e-3)
        engine = ChaosEngine(
            FaultSchedule([RouterCrash(0.0035, "s1", restart_at=0.0065)]), net
        )
        engine.arm()
        net.run(until=0.05)
        assert not s1.failed
        assert len(s1.table) == 2  # both MAC routes back
        assert sorted(p.ip.ident for p in got) == [0, 1, 2, 3, 7, 8, 9]

    def test_behavior_window_turns_switch_adversarial(self):
        net, h1, h2, s1, _ = two_switch_net()
        got = blast(net, h1, h2, count=10, spacing=1e-3)
        engine = ChaosEngine(
            FaultSchedule(
                [BehaviorOn(0.0035, "s1", behavior="blackhole", until=0.0065)]
            ),
            net,
        )
        engine.arm()
        net.run(until=0.05)
        assert s1.behavior is None  # restored
        assert s1.stats.behavior_handled == 3
        assert sorted(p.ip.ident for p in got) == [0, 1, 2, 3, 7, 8, 9]


class TestTrustedTargets:
    """A combiner endpoint is a trusted element, not a router: a router
    fault aimed at one is refused when the schedule is armed, rather than
    armed on a hook the endpoint never consults."""

    @pytest.mark.parametrize("target", ["nc_sA", "nc_sB"])
    @pytest.mark.parametrize("make", [
        lambda target: BehaviorOn(0.001, target, behavior="blackhole"),
        lambda target: AdversaryStrategy(
            0.001, target, strategy="sampled_corruption", branch=0
        ),
        lambda target: RouterCrash(0.001, target),
    ], ids=["behavior", "adversary_strategy", "router_crash"])
    def test_a_router_fault_on_an_endpoint_fails_at_arm(self, make, target):
        from repro.scenarios.testbed import build_testbed

        testbed = build_testbed("central3", seed=1)
        engine = ChaosEngine(
            FaultSchedule([make(target)]),
            testbed.network,
            compare_core=testbed.compare_core,
        )
        with pytest.raises(ValueError, match=f"node '{target}' is not a switch"):
            engine.arm()


class TestAdversaryStrategyEvents:
    def test_activation_window_tampers_then_restores(self):
        net, h1, h2, s1, _ = two_switch_net()
        got = blast(net, h1, h2, count=10, spacing=1e-3)
        engine = ChaosEngine(
            FaultSchedule(
                [AdversaryStrategy(0.0035, "s1", strategy="sampled_corruption",
                                   rate=1.0, until=0.0065)]
            ),
            net,
        )
        engine.arm()
        net.run(until=0.05)
        assert s1.behavior is None  # restored after the window
        strategy = engine.adversaries["s1"]
        # datagrams 4..6 crossed the active window and were corrupted
        # in-flight (still delivered: no voter on this toy topology)
        assert strategy.packets_tampered == 3
        assert strategy.active_seconds == pytest.approx(0.003)
        assert strategy.activated_at is None
        assert len(got) == 10
        corrupted = [p for p in got if set(p.payload) != {p.payload[-1]}]
        assert len(corrupted) == 3

    def test_strategy_uses_named_rng_stream(self):
        def tampered_idents(seed):
            net, h1, h2, _, _ = two_switch_net(seed=seed)
            got = blast(net, h1, h2, count=20, spacing=1e-3)
            ChaosEngine(
                FaultSchedule(
                    [AdversaryStrategy(0.0, "s1",
                                       strategy="sampled_corruption",
                                       rate=0.5)],
                    name="probe",
                ),
                net,
            ).arm()
            net.run(until=0.05)
            return sorted(p.ip.ident for p in got
                          if set(p.payload) != {p.payload[-1]})

        assert tampered_idents(3) == tampered_idents(3)
        assert tampered_idents(3) != tampered_idents(4)

    def test_compare_bound_strategy_without_core_fails_at_arm(self):
        net, *_ = two_switch_net()
        engine = ChaosEngine(
            FaultSchedule(
                [AdversaryStrategy(0.001, "s1", strategy="sweep_timed")]
            ),
            net,
        )
        with pytest.raises(ValueError, match="compare core"):
            engine.arm()


def test_chaos_run_is_bit_reproducible():
    """Same schedule + seed -> byte-identical survivability record."""
    from repro.analysis.tasks import chaos_run

    schedule = builtin_battery()["crash_restart"].to_dict()
    a = json.dumps(chaos_run(schedule=schedule, seed=9, duration=0.03),
                   sort_keys=True)
    b = json.dumps(chaos_run(schedule=schedule, seed=9, duration=0.03),
                   sort_keys=True)
    assert a == b


class TestSupervisedFlow:
    """``chaos.run``, ``adv.run`` and the live demo's DES twin share one
    driver (``analysis.tasks.run_supervised_flow``)."""

    def test_chaos_run_takes_the_compare_timed_strategies(self):
        """A strategy that times itself against the compare's sweeps ran
        only under ``adv.run``; the shared driver hands every engine the
        compare, so a chaos schedule can carry it too."""
        from repro.analysis.tasks import chaos_run

        schedule = FaultSchedule(
            [AdversaryStrategy(0.004, "r1", strategy="sweep_timed", until=0.02)],
            name="sweep_timed",
        )
        record = chaos_run(schedule=schedule.to_dict(), seed=3, duration=0.03)
        assert [i["kind"] for i in record["injections"]] == [
            "adversary_strategy", "behavior_off",
        ]
        assert record["received"] == record["sent"]  # outvoted

    def test_a_behavior_event_reports_its_adversary(self):
        """A ``behavior`` event arms through the same path as an
        ``adversary_strategy`` one: the engine records the adversary
        with its branch, so a runner does not count that branch's
        quarantine as a false one."""
        from repro.analysis.tasks import run_supervised_flow
        from repro.scenarios.testbed import build_testbed

        testbed = build_testbed("central3", seed=2)
        run = run_supervised_flow(
            testbed,
            FaultSchedule([BehaviorOn(0.004, "r1", behavior="payload_corruption")]),
            {},
            rate_bps=20e6,
            duration=0.01,
            payload_size=512,
        )
        assert list(run.engine.adversaries) == ["nc_r1"]
        adversary = run.engine.adversaries["nc_r1"]
        assert adversary.branch == 1
        assert adversary.packets_tampered > 0
        assert adversary.activated_at == pytest.approx(0.004)

    def test_a_variant_without_a_compare_is_a_named_error(self):
        from repro.analysis.tasks import chaos_run

        schedule = builtin_battery()["crash_restart"].to_dict()
        with pytest.raises(ValueError, match="'dup3' has no compare element"):
            chaos_run(schedule=schedule, seed=1, variant="dup3")


class TestExplicitBranchTargets:
    """adversary_strategy events may name the branch index explicitly —
    needed when the switch name carries no ``r<i>`` hint."""

    def gateway_net(self):
        from repro.openflow.switch import OpenFlowSwitch

        net = Network(seed=5)
        net.add_node(OpenFlowSwitch(net.sim, "edge_gateway",
                                    trace_bus=net.trace))
        return net

    def compare_core(self, net):
        from repro.core.compare import CompareConfig, CompareCore

        return CompareCore(net.sim, CompareConfig(k=3))

    def test_branch_field_round_trip(self):
        schedule = FaultSchedule(
            [AdversaryStrategy(0.001, "edge_gateway",
                               strategy="probation_evader", branch=2)]
        )
        schedule.validate()
        d = schedule.to_dict()
        assert d["events"][0]["branch"] == 2
        assert FaultSchedule.from_dict(d).to_dict() == d
        # an event without the field must not serialise it
        bare = FaultSchedule(
            [AdversaryStrategy(0.001, "r1", strategy="sweep_timed")]
        ).to_dict()
        assert "branch" not in bare["events"][0]

    def test_negative_branch_rejected(self):
        with pytest.raises(ValueError, match="branch"):
            FaultSchedule(
                [AdversaryStrategy(0.1, "r1", branch=-1)]
            ).validate()

    def test_explicit_branch_arms_opaque_switch_name(self):
        net = self.gateway_net()
        engine = ChaosEngine(
            FaultSchedule(
                [AdversaryStrategy(0.001, "edge_gateway",
                                   strategy="probation_evader", branch=1)]
            ),
            net,
            compare_core=self.compare_core(net),
        )
        engine.arm()  # must not raise: the branch is explicit
        assert "edge_gateway" in engine.adversaries

    def test_unresolvable_target_errors_clearly(self):
        net = self.gateway_net()
        engine = ChaosEngine(
            FaultSchedule(
                [AdversaryStrategy(0.001, "edge_gateway",
                                   strategy="probation_evader")]
            ),
            net,
            compare_core=self.compare_core(net),
        )
        with pytest.raises(ValueError, match="explicit 'branch' field"):
            engine.arm()

    def test_explicit_branch_wins_over_name_hint(self):
        # switch r0 would resolve to branch 0; the event says branch 2
        net, *_ = two_switch_net()
        from repro.openflow.switch import OpenFlowSwitch

        net.add_node(OpenFlowSwitch(net.sim, "r0", trace_bus=net.trace))
        engine = ChaosEngine(
            FaultSchedule(
                [AdversaryStrategy(0.001, "r0",
                                   strategy="probation_evader", branch=2)]
            ),
            net,
            compare_core=self.compare_core(net),
        )
        engine.arm()
        assert engine.adversaries["r0"].branch == 2
