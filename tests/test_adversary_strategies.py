"""Unit tests for the scheduled adversary strategies: catalogue wiring,
build contracts, each strategy's decision state machine (driven
directly, no network needed), the deterministic collusion wire image,
and the metrics binding."""

import random
from types import SimpleNamespace

import pytest

from repro.adversary.behaviors import Target
from repro.adversary.catalogue import DATA, build, entry
from repro.adversary.modify import corrupt_payload
from repro.adversary.strategies import (
    CollusionCorruption,
    PathInconsistency,
    ProbationEvader,
    SampledCorruption,
    ScheduledStrategy,
    SweepTimedCorruption,
)
from repro.net.packet import Packet
from repro.obs.metrics import MetricsRegistry, use_registry


def fake_switch():
    """Just what a strategy reads off its switch: the clock."""
    return SimpleNamespace(sim=SimpleNamespace(now=0.0))


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


def from_catalogue(strategy, **kwargs):
    """Build a catalogue entry on a fake switch."""
    return build(strategy, Target(fake_switch(), random.Random(7), **kwargs))


# ----------------------------------------------------------------------
# registry & constructor contracts
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_strategies_registered(self):
        for cls in (
            CollusionCorruption,
            PathInconsistency,
            ProbationEvader,
            SampledCorruption,
            SweepTimedCorruption,
        ):
            found = entry(DATA, cls.STRATEGY)
            assert found.cls is cls
            assert isinstance(from_catalogue(
                cls.STRATEGY, compare=FakeCompare(), branch=1), cls)
            assert issubclass(cls, ScheduledStrategy)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown data-plane adversary"):
            from_catalogue("quantum_tunneling")

    def test_sweep_timed_requires_compare(self):
        with pytest.raises(ValueError, match="compare core"):
            from_catalogue("sweep_timed")

    def test_probation_evader_requires_compare_and_branch(self):
        with pytest.raises(ValueError, match="compare core"):
            from_catalogue("probation_evader")
        with pytest.raises(ValueError, match="branch index"):
            from_catalogue("probation_evader", compare=FakeCompare())


# ----------------------------------------------------------------------
# decision state machines
# ----------------------------------------------------------------------
class TestSampledCorruption:
    def test_rate_one_never_draws(self):
        class Poisoned:
            def random(self):  # pragma: no cover - must not be reached
                raise AssertionError("rate >= 1 must not consume the stream")

        s = SampledCorruption(Target(fake_switch(), Poisoned(), rate=1.0))
        assert all(s.decide(packet(), 0.0) for _ in range(5))

    def test_rate_zero_never_lies(self):
        s = from_catalogue("sampled_corruption", rate=0.0)
        assert not any(s.decide(packet(), 0.0) for _ in range(50))

    def test_rate_is_deterministic_per_stream(self):
        a = SampledCorruption(Target(fake_switch(), random.Random(11), rate=0.3))
        b = SampledCorruption(Target(fake_switch(), random.Random(11), rate=0.3))
        draws_a = [a.decide(packet(), 0.0) for _ in range(100)]
        draws_b = [b.decide(packet(), 0.0) for _ in range(100)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)


class TestPathInconsistency:
    def test_pace_selects_one_phase_per_cycle(self):
        s = from_catalogue("path_inconsistency", pace=3)
        decisions = [s.decide(packet(), 0.0) for _ in range(12)]
        assert sum(decisions) == 4  # one per cycle of 3
        first = decisions.index(True)
        assert decisions[first::3] == [True] * 4
        assert 0 <= s._phase < 3

    def test_pace_one_lies_every_packet(self):
        s = from_catalogue("path_inconsistency", pace=1)
        assert all(s.decide(packet(), 0.0) for _ in range(5))


class TestSweepTimed:
    def test_window_defaults_to_half_sweep_period(self):
        s = from_catalogue("sweep_timed", compare=FakeCompare(buffer_timeout=2e-3))
        assert s.window == pytest.approx(1e-3)

    def test_subscription_lifecycle(self):
        compare = FakeCompare()
        s = from_catalogue("sweep_timed", compare=compare)
        assert compare.sweep_listeners == []
        s.activate(0.0)
        assert compare.sweep_listeners == [s._on_sweep]
        s.deactivate(0.0)
        assert compare.sweep_listeners == []

    def test_lies_only_inside_post_sweep_window(self):
        s = from_catalogue("sweep_timed", compare=FakeCompare(buffer_timeout=2e-3),
                  rate=1.0)
        s.activate(0.0)
        assert not s.decide(packet(), 0.005)  # no sweep seen yet
        s._on_sweep(0.010)
        assert s.decide(packet(), 0.0105)     # inside the 1 ms window
        assert not s.decide(packet(), 0.0115)  # window passed
        s._on_sweep(0.012)
        assert s.decide(packet(), 0.0125)     # re-armed by the next sweep


class TestProbationEvader:
    def build_evader(self, **kwargs):
        compare = FakeCompare()
        s = from_catalogue("probation_evader", compare=compare, branch=1, **kwargs)
        s.activate(0.0)
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
        assert isinstance(from_catalogue("colluding_minority"), CollusionCorruption)


# ----------------------------------------------------------------------
# lifecycle accounting & metrics binding
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_active_seconds_accumulate_across_activations(self):
        s = from_catalogue("sampled_corruption")
        s.activate(0.010)
        s.deactivate(0.015)
        s.activate(0.020)
        s.deactivate(0.022)
        assert s.active_seconds == pytest.approx(0.007)
        assert s.activated_at is None

    def test_deactivate_without_activate_is_a_noop(self):
        s = from_catalogue("sampled_corruption")
        s.deactivate(0.0)
        assert s.active_seconds == 0.0

    def test_metrics_bind_when_registry_enabled(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            s = from_catalogue("sampled_corruption")
        fake_switch = SimpleNamespace(trace=lambda *a, **k: None)
        s.trace_tamper(fake_switch, "corrupt", packet())
        s.trace_tamper(fake_switch, "corrupt", packet())
        s.activate(0.0)
        s.deactivate(0.5)
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

        s = from_catalogue("sampled_corruption")
        assert active_registry().samples() == {}
        # the hot path still counts locally
        s.trace_tamper(SimpleNamespace(trace=lambda *a, **k: None),
                       "corrupt", packet())
        assert s.packets_tampered == 1
