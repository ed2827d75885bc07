"""Scheduled, stateful adversary strategies (ROADMAP item 4).

The static behaviours in the sibling modules (``dos`` / ``mirror`` /
``modify`` / ``reroute``) misbehave from the moment they are attached.
The strategies here model *intelligent* attackers drawn from the related
work — SDNsec-style path inconsistency, trajectory-sampling-grade
probabilistic corruption, probation-window evasion, vote-sweep timing,
and colluding minorities — as :class:`ScheduledStrategy` behaviours that
the chaos engine can activate mid-run (``adversary_strategy`` events).

Each strategy draws from its own named rng stream, and the ones that key
off the trusted element's internal cadence subscribe to the hooks the
voter exposes for exactly this purpose:
:meth:`~repro.core.membership.QuorumVoter.add_sweep_listener`
(expiry-sweep ticks) and
:meth:`~repro.core.membership.QuorumVoter.add_membership_listener`
(quarantine / re-admission transitions).

Every tampered packet is counted on the
``adversary_packets_tampered_total{strategy}`` metric and total active
time on ``adversary_active_seconds{strategy}``; both bind from the
registry active at construction time and are ``None`` when metrics are
disabled, so the hot path pays a single ``is not None`` test.
"""

from __future__ import annotations

from typing import Optional

from repro.adversary.behaviors import AdversarialBehavior, Target
from repro.adversary.modify import corrupt_payload
from repro.net.packet import Packet
from repro.obs.metrics import StatBlock
from repro.openflow.switch import OpenFlowSwitch


class ScheduledStrategy(AdversarialBehavior):
    """Base class: a chaos-schedulable behaviour with a strategy callback.

    Subclasses implement :meth:`decide`; when it returns True the packet
    is tampered with (default: the canonical payload corruption), when
    False the switch's genuine pipeline runs.  Its tamper count and
    active time are published as metrics.
    """

    #: catalogue name; also the ``strategy`` metric label
    STRATEGY = ""

    def __init__(self, target: Target, name: str = "") -> None:
        super().__init__(name or self.STRATEGY)
        self.sim = target.switch.sim
        self.rng = target.rng
        self.compare = target.compare
        self.rate = target.rate
        self.pace = target.pace
        self.window = target.window
        StatBlock.publish_samples(
            lambda: {
                "adversary_packets_tampered_total": self.packets_tampered,
                "adversary_active_seconds": self.active_seconds,
            },
            strategy=self.STRATEGY,
        )

    # -- the hot path ---------------------------------------------------
    def handle(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        self.packets_seen += 1
        if self.decide(packet, self.sim.now):
            return self.tamper(switch, packet, in_port_no)
        return self.forward_normally(switch, packet, in_port_no)

    def decide(self, packet: Packet, now: float) -> bool:
        """The strategy callback: lie about this packet?"""
        raise NotImplementedError

    def tamper(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        """Forward a corrupted copy (subclasses may override the mutation)."""
        if not packet.payload:
            return self.forward_normally(switch, packet, in_port_no)
        mutated = corrupt_payload(packet)
        self.trace_tamper(switch, "corrupt", mutated)
        self.forward_normally(switch, mutated, in_port_no)
        return True

    def _sample(self) -> bool:
        """One Bernoulli(rate) draw from this strategy's own stream."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        return self.rng.random() < self.rate


class SampledCorruption(ScheduledStrategy):
    """Probabilistically-sampled corruption at rate p.

    The adversary class a trajectory-sampling monitor is built against
    (Software-Defined Adversarial Trajectory Sampling): each packet is
    independently corrupted with probability ``rate``, so at p = 0.001
    the evidence trickles in far below any per-window threshold.
    """

    STRATEGY = "sampled_corruption"
    knobs = ("rate",)

    def decide(self, packet: Packet, now: float) -> bool:
        return self._sample()


class CollusionCorruption(SampledCorruption):
    """A colluding branch: emits the canonical corrupt image, always.

    Schedule it on m branches and all m deliver byte-identical wrong
    copies (see :func:`corrupt_payload`) — below quorum the voter must
    still mask every one; at quorum the wrong image *wins* the vote,
    which the advbench suite keeps as its negative control.
    """

    STRATEGY = "colluding_minority"


class PathInconsistency(ScheduledStrategy):
    """SDNsec-style path-inconsistency / reroute attack.

    Every ``pace``-th packet is forwarded as if it had silently traversed
    an extra hop: one extra TTL decrement, payload untouched.  A
    forwarding-accountability scheme would catch the path digest
    mismatch; here the bit-exact voter sees a divergent header and the
    honest quorum outvotes it.  The rng stream only picks the phase, so
    the wire images stay deterministic per seed.
    """

    STRATEGY = "path_inconsistency"
    knobs = ("pace",)

    def __init__(self, target: Target, name: str = "") -> None:
        super().__init__(target, name)
        self._count = 0
        self._phase = int(self.rng.random() * self.pace) % self.pace if self.pace > 1 else 0

    def decide(self, packet: Packet, now: float) -> bool:
        selected = self._count % self.pace == self._phase
        self._count += 1
        return selected

    def tamper(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        mutated = packet.copy()
        mutated.decrement_ttl()
        self.trace_tamper(switch, "reroute", mutated)
        self.forward_normally(switch, mutated, in_port_no)
        return True


class SweepTimedCorruption(ScheduledStrategy):
    """Selective modification timed against the compare's vote sweeps.

    Subscribes to the compare's expiry-sweep tick and only lies inside
    the ``window`` right after a sweep fired — a freshly created
    divergent entry then sits a full buffer timeout away from the sweep
    that would expire it, so the single-source evidence surfaces as late
    as the cadence allows.  ``window`` defaults to half the sweep period.
    """

    STRATEGY = "sweep_timed"
    requires_compare = True
    knobs = ("rate", "window")

    def __init__(self, target: Target, name: str = "") -> None:
        super().__init__(target, name)
        if self.window <= 0.0:
            self.window = 0.5 * float(self.compare.config.buffer_timeout)
        self._last_sweep: Optional[float] = None

    def activate(self, now: float) -> None:
        super().activate(now)
        self.compare.add_sweep_listener(self._on_sweep)

    def deactivate(self, now: float) -> None:
        super().deactivate(now)
        self.compare.remove_sweep_listener(self._on_sweep)

    def _on_sweep(self, now: float) -> None:
        self._last_sweep = now

    def decide(self, packet: Packet, now: float) -> bool:
        if self._last_sweep is None or now - self._last_sweep > self.window:
            return False
        return self._sample()


class ProbationEvader(ScheduledStrategy):
    """Lie pacing that goes quiet inside the quarantine probation window.

    Lies continuously until the compare quarantines its own branch, then
    serves probation as a model citizen — clean copies are probation's
    currency, so behaving earns re-admission at full speed — and resumes
    lying the moment it is back in the vote.  ``pace`` > 1 additionally
    paces the lies while active; ``rate`` < 1 subsamples them.
    """

    STRATEGY = "probation_evader"
    requires_compare = True
    requires_branch = True
    knobs = ("rate", "pace")

    def __init__(self, target: Target, name: str = "") -> None:
        super().__init__(target, name)
        self._lying = True
        self._count = 0
        #: quarantine -> quiet transitions (evasions served)
        self.evasions = 0
        #: re-admission -> lying-again transitions
        self.resumptions = 0

    def activate(self, now: float) -> None:
        super().activate(now)
        self.compare.add_membership_listener(self._on_membership)

    def deactivate(self, now: float) -> None:
        super().deactivate(now)
        self.compare.remove_membership_listener(self._on_membership)

    def _on_membership(self, event: str, branch: int, now: float) -> None:
        if branch != self.branch:
            return
        if event == "quarantine" and self._lying:
            self._lying = False
            self.evasions += 1
        elif event == "readmit" and not self._lying:
            self._lying = True
            self.resumptions += 1

    def decide(self, packet: Packet, now: float) -> bool:
        if not self._lying:
            return False
        self._count += 1
        if self.pace > 1 and self._count % self.pace:
            return False
        return self._sample()
