"""Unit tests for the scheduled adversary strategies: registry wiring,
constructor contracts, each strategy's decision state machine (driven
directly, no network needed), the deterministic collusion wire image,
and the metrics binding."""

import random
from types import SimpleNamespace

import pytest

from repro.adversary.strategies import (
    STRATEGIES,
    CollusionCorruption,
    PathInconsistency,
    ProbationEvader,
    SampledCorruption,
    SweepTimedCorruption,
    build_strategy,
    corrupt_payload,
)
from repro.net.packet import Packet
from repro.obs.metrics import MetricsRegistry, use_registry


def fake_sim(now=0.0):
    return SimpleNamespace(now=now)


class FakeCompare:
    """Just the hooks a strategy subscribes to."""

    def __init__(self, buffer_timeout=1e-3):
        self.config = SimpleNamespace(buffer_timeout=buffer_timeout)
        self.sweep_listeners = []
        self.membership_listeners = []

    def add_sweep_listener(self, fn):
        self.sweep_listeners.append(fn)

    def remove_sweep_listener(self, fn):
        self.sweep_listeners.remove(fn)

    def add_membership_listener(self, fn):
        self.membership_listeners.append(fn)

    def remove_membership_listener(self, fn):
        self.membership_listeners.remove(fn)


def packet(payload=b"hello adversary"):
    return Packet.udp(
        "00:00:00:00:00:01", "00:00:00:00:00:02",
        "10.0.0.1", "10.0.0.2", 7, 7, payload=payload,
    )


def build(strategy, **kwargs):
    kwargs.setdefault("sim", fake_sim())
    kwargs.setdefault("rng", random.Random(7))
    return build_strategy(strategy, **kwargs)


# ----------------------------------------------------------------------
# registry & constructor contracts
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_strategies_registered(self):
        assert sorted(STRATEGIES) == [
            "colluding_minority",
            "path_inconsistency",
            "probation_evader",
            "sampled_corruption",
            "sweep_timed",
        ]
        for name, cls in STRATEGIES.items():
            assert cls.STRATEGY == name

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown adversary strategy"):
            build("quantum_tunneling")

    def test_sweep_timed_requires_compare(self):
        with pytest.raises(ValueError, match="compare core"):
            build("sweep_timed")

    def test_probation_evader_requires_compare_and_branch(self):
        with pytest.raises(ValueError, match="compare core"):
            build("probation_evader")
        with pytest.raises(ValueError, match="branch index"):
            build("probation_evader", compare=FakeCompare())


# ----------------------------------------------------------------------
# decision state machines
# ----------------------------------------------------------------------
class TestSampledCorruption:
    def test_rate_one_never_draws(self):
        class Poisoned:
            def random(self):  # pragma: no cover - must not be reached
                raise AssertionError("rate >= 1 must not consume the stream")

        s = SampledCorruption(fake_sim(), Poisoned(), rate=1.0)
        assert all(s.decide(packet(), 0.0) for _ in range(5))

    def test_rate_zero_never_lies(self):
        s = build("sampled_corruption", rate=0.0)
        assert not any(s.decide(packet(), 0.0) for _ in range(50))

    def test_rate_is_deterministic_per_stream(self):
        a = SampledCorruption(fake_sim(), random.Random(11), rate=0.3)
        b = SampledCorruption(fake_sim(), random.Random(11), rate=0.3)
        draws_a = [a.decide(packet(), 0.0) for _ in range(100)]
        draws_b = [b.decide(packet(), 0.0) for _ in range(100)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)


class TestPathInconsistency:
    def test_pace_selects_one_phase_per_cycle(self):
        s = build("path_inconsistency", pace=3)
        decisions = [s.decide(packet(), 0.0) for _ in range(12)]
        assert sum(decisions) == 4  # one per cycle of 3
        first = decisions.index(True)
        assert decisions[first::3] == [True] * 4
        assert 0 <= s._phase < 3

    def test_pace_one_lies_every_packet(self):
        s = build("path_inconsistency", pace=1)
        assert all(s.decide(packet(), 0.0) for _ in range(5))


class TestSweepTimed:
    def test_window_defaults_to_half_sweep_period(self):
        s = build("sweep_timed", compare=FakeCompare(buffer_timeout=2e-3))
        assert s.window == pytest.approx(1e-3)

    def test_subscription_lifecycle(self):
        compare = FakeCompare()
        s = build("sweep_timed", compare=compare)
        assert compare.sweep_listeners == []
        s.activate()
        assert compare.sweep_listeners == [s._on_sweep]
        s.deactivate()
        assert compare.sweep_listeners == []

    def test_lies_only_inside_post_sweep_window(self):
        s = build("sweep_timed", compare=FakeCompare(buffer_timeout=2e-3),
                  rate=1.0)
        s.activate()
        assert not s.decide(packet(), 0.005)  # no sweep seen yet
        s._on_sweep(0.010)
        assert s.decide(packet(), 0.0105)     # inside the 1 ms window
        assert not s.decide(packet(), 0.0115)  # window passed
        s._on_sweep(0.012)
        assert s.decide(packet(), 0.0125)     # re-armed by the next sweep


class TestProbationEvader:
    def build_evader(self, **kwargs):
        compare = FakeCompare()
        s = build("probation_evader", compare=compare, branch=1, **kwargs)
        s.activate()
        return s, compare

    def test_goes_quiet_on_own_quarantine_and_resumes_on_readmit(self):
        s, compare = self.build_evader()
        assert s.decide(packet(), 0.001)
        compare.membership_listeners[0]("quarantine", 1, 0.002)
        assert s.evasions == 1
        assert not s.decide(packet(), 0.003)  # serving probation
        compare.membership_listeners[0]("readmit", 1, 0.004)
        assert s.resumptions == 1
        assert s.decide(packet(), 0.005)      # lying again

    def test_other_branch_transitions_ignored(self):
        s, compare = self.build_evader()
        compare.membership_listeners[0]("quarantine", 0, 0.002)
        assert s.evasions == 0
        assert s.decide(packet(), 0.003)

    def test_pace_spaces_the_lies(self):
        s, _ = self.build_evader(pace=4)
        decisions = [s.decide(packet(), 0.0) for _ in range(8)]
        assert decisions == [False, False, False, True] * 2


# ----------------------------------------------------------------------
# the collusion wire image
# ----------------------------------------------------------------------
class TestCorruptPayload:
    def test_flips_exactly_one_byte(self):
        original = packet()
        mutated = corrupt_payload(original)
        assert mutated.payload != original.payload
        assert len(mutated.payload) == len(original.payload)
        diffs = [i for i, (a, b) in
                 enumerate(zip(original.payload, mutated.payload)) if a != b]
        assert diffs == [0]
        assert mutated.payload[0] == original.payload[0] ^ 0xFF

    def test_colluders_emit_identical_images_without_coordination(self):
        # two independent branches, different rng streams, same packet ->
        # byte-identical corruption (what makes collusion dangerous)
        p = packet()
        img_a = corrupt_payload(p.copy())
        img_b = corrupt_payload(p.copy())
        assert img_a.payload == img_b.payload
        assert isinstance(build("colluding_minority"), CollusionCorruption)


# ----------------------------------------------------------------------
# lifecycle accounting & metrics binding
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_active_seconds_accumulate_across_activations(self):
        sim = fake_sim()
        s = build("sampled_corruption", sim=sim)
        sim.now = 0.010
        s.activate()
        sim.now = 0.015
        s.deactivate()
        sim.now = 0.020
        s.activate()
        sim.now = 0.022
        s.deactivate()
        assert s.active_seconds == pytest.approx(0.007)
        assert s.activated_at is None

    def test_deactivate_without_activate_is_a_noop(self):
        s = build("sampled_corruption")
        s.deactivate()
        assert s.active_seconds == 0.0

    def test_metrics_bind_when_registry_enabled(self):
        registry = MetricsRegistry(enabled=True)
        sim = fake_sim()
        with use_registry(registry):
            s = build("sampled_corruption", sim=sim)
        fake_switch = SimpleNamespace(trace=lambda *a, **k: None)
        s.trace_tamper(fake_switch, "corrupt", packet())
        s.trace_tamper(fake_switch, "corrupt", packet())
        s.activate()
        sim.now = 0.5
        s.deactivate()
        samples = registry.samples()
        assert samples[
            'adversary_packets_tampered_total{strategy="sampled_corruption"}'
        ] == 2
        assert samples[
            'adversary_active_seconds{strategy="sampled_corruption"}'
        ] == pytest.approx(0.5)
        assert s.packets_tampered == 2

    def test_metrics_absent_when_registry_disabled(self):
        from repro.obs.metrics import active_registry

        s = build("sampled_corruption")
        assert active_registry().samples() == {}
        # the hot path still counts locally
        s.trace_tamper(SimpleNamespace(trace=lambda *a, **k: None),
                       "corrupt", packet())
        assert s.packets_tampered == 1
