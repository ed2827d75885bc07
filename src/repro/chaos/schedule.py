"""Declarative, deterministic fault schedules.

A :class:`FaultSchedule` is a sorted list of typed fault events — link
cuts, Gilbert–Elliott loss bursts, bandwidth brownouts, router crashes
with flow-table wipe, and mid-run adversary behaviour activation.  The
:class:`ChaosEngine` compiles a schedule onto an existing
:class:`~repro.net.topology.Network` via ``Simulator.schedule_at``;
every random draw a fault needs (burst loss) comes from a named RNG
stream derived from the network's master seed, so a chaos run is exactly
as bit-reproducible as a fault-free one.

Schedules serialise to/from JSON so they can be checked in under
``examples/`` and passed to the experiment CLI as ``--chaos spec.json``::

    {
      "name": "crash_central3",
      "events": [
        {"kind": "router_crash", "time": 0.01, "target": "r1",
         "restart_at": 0.025}
      ]
    }

Targets are node names, link names (``"<a>-<b>"`` as assigned by
``Network.connect``), or aliases supplied by the scenario
(``Testbed.aliases()``: on Central3 ``r0..r2`` are ``nc_r0..nc_r2``).
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Type

from repro.adversary.behaviors import AdversarialBehavior, Target
from repro.adversary.catalogue import CONTROL, DATA, Row, build, check, entry
from repro.ctrl.replicated import CompromisePlan
from repro.net.link import Link
from repro.net.node import NetworkError
from repro.net.topology import Network
from repro.obs.metrics import bind_counter
from repro.openflow.switch import OpenFlowSwitch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compare import CompareCore
    from repro.ctrl.replicated import ReplicatedControlPlane


# ----------------------------------------------------------------------
# typed events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """Base class: one fault applied to one target at one sim time."""

    KIND = ""

    time: float
    target: str

    def validate(self) -> None:
        if self.time < 0.0:
            raise ValueError(f"{self.KIND}: negative time {self.time}")
        if not self.target:
            raise ValueError(f"{self.KIND}: empty target")


@dataclass(frozen=True)
class LinkDown(FaultEvent):
    """Cut a link; ``until`` (optional) schedules the matching repair."""

    KIND = "link_down"

    until: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        if self.until is not None and self.until <= self.time:
            raise ValueError(f"{self.KIND}: until {self.until} <= time {self.time}")


@dataclass(frozen=True)
class LinkUp(FaultEvent):
    """Repair a previously cut link."""

    KIND = "link_up"


@dataclass(frozen=True)
class LossBurst(FaultEvent):
    """Install a Gilbert–Elliott loss model on a link until ``until``.

    The two-state Markov chain (good/bad) produces the bursty loss real
    radio or congested links show, which independent Bernoulli draws
    cannot; parameters follow the classic Gilbert–Elliott formulation.
    """

    KIND = "loss_burst"

    until: float = 0.0
    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.8

    def validate(self) -> None:
        super().validate()
        if self.until <= self.time:
            raise ValueError(f"{self.KIND}: until {self.until} <= time {self.time}")
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{self.KIND}: {name}={value} out of [0, 1]")


@dataclass(frozen=True)
class BandwidthDegrade(FaultEvent):
    """Scale a link's rate by ``factor``; restore at ``until`` if given."""

    KIND = "bandwidth"

    factor: float = 0.5
    until: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        if self.factor <= 0.0:
            raise ValueError(f"{self.KIND}: factor must be positive, got {self.factor}")
        if self.until is not None and self.until <= self.time:
            raise ValueError(f"{self.KIND}: until {self.until} <= time {self.time}")


@dataclass(frozen=True)
class RouterCrash(FaultEvent):
    """Crash a switch (drops everything, wipes soft state).

    ``restart_at`` schedules the matching :class:`RouterRestart`;
    ``restore_flows`` then models the operator re-provisioning routes.
    """

    KIND = "router_crash"

    wipe_flows: bool = True
    restart_at: Optional[float] = None
    restore_flows: bool = True

    def validate(self) -> None:
        super().validate()
        if self.restart_at is not None and self.restart_at <= self.time:
            raise ValueError(
                f"{self.KIND}: restart_at {self.restart_at} <= time {self.time}"
            )


@dataclass(frozen=True)
class RouterRestart(FaultEvent):
    """Bring a crashed switch back up."""

    KIND = "router_restart"

    restore_flows: bool = True


@dataclass(frozen=True)
class BehaviorOn(FaultEvent):
    """Turn a switch adversarial mid-run (compromise at time t).

    ``behavior`` names a data-plane catalogue entry, built with its
    default knobs (``drop`` deletes the UDP datagrams only; ``blackhole``
    swallows every packet)."""

    KIND = "behavior"

    behavior: str = "blackhole"
    until: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        try:
            entry(DATA, self.behavior)
        except ValueError as exc:
            raise ValueError(f"{self.KIND}: {exc}") from None
        if self.until is not None and self.until <= self.time:
            raise ValueError(f"{self.KIND}: until {self.until} <= time {self.time}")


@dataclass(frozen=True)
class BehaviorOff(FaultEvent):
    """Restore the pre-compromise behavior of a switch."""

    KIND = "behavior_off"


@dataclass(frozen=True)
class AdversaryStrategy(FaultEvent):
    """Activate a data-plane catalogue entry on a switch, with knobs.

    :class:`BehaviorOn` with ``rate`` / ``pace`` / ``window`` and an
    explicit ``branch``: the entry is built with its own named rng stream
    and, when it needs them, the compare core's probation / sweep hooks
    (hand ``compare_core=`` to the engine).  ``until`` restores the
    pre-compromise behaviour and credits the adversary's active time.
    Branch binding: an explicit ``branch`` field wins; otherwise a target
    aliased or named ``r<i>`` binds it to branch ``i``.  An entry that
    requires a branch fails at arm time (with the target named) when
    neither is available.  A knob the entry does not read must stay at
    its default.
    """

    KIND = "adversary_strategy"

    strategy: str = "sampled_corruption"
    rate: float = 1.0
    pace: int = 1
    window: float = 0.0
    until: Optional[float] = None
    branch: Optional[int] = None

    def validate(self) -> None:
        super().validate()
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"{self.KIND}: rate={self.rate} out of [0, 1]")
        if self.pace < 1:
            raise ValueError(f"{self.KIND}: pace must be >= 1, got {self.pace}")
        if self.window < 0.0:
            raise ValueError(f"{self.KIND}: negative window {self.window}")
        try:
            check(self.strategy, rate=self.rate, pace=self.pace, window=self.window)
        except ValueError as exc:
            raise ValueError(f"{self.KIND}: {exc}") from None
        if self.until is not None and self.until <= self.time:
            raise ValueError(f"{self.KIND}: until {self.until} <= time {self.time}")
        if self.branch is not None and self.branch < 0:
            raise ValueError(f"{self.KIND}: branch must be >= 0, got {self.branch}")


@dataclass(frozen=True)
class ControllerCrash(FaultEvent):
    """Fail-stop one control-plane replica (target: ``c<i>`` or name).

    ``restart_at`` schedules the matching :class:`ControllerRestart`; the
    restarted replica's app state is stale, so the voter masks (and, if
    persistent, quarantines) its post-restart divergence.
    """

    KIND = "controller_crash"

    restart_at: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        if self.restart_at is not None and self.restart_at <= self.time:
            raise ValueError(
                f"{self.KIND}: restart_at {self.restart_at} <= time {self.time}"
            )


@dataclass(frozen=True)
class ControllerRestart(FaultEvent):
    """Bring a crashed control-plane replica back up."""

    KIND = "controller_restart"


@dataclass(frozen=True)
class ControllerCompromise(FaultEvent):
    """Turn one control-plane replica into a liar (modified flow-mods).

    ``strategy`` names a control-plane catalogue entry that lies;
    ``lie_every`` > 1 paces the lies (an adversary timing itself against
    the probation window); ``until`` ends the campaign.
    """

    KIND = "controller_compromise"

    strategy: str = "blackhole"
    lie_every: int = 1
    until: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        try:  # the plan the engine will arm checks the entry and the pacing
            CompromisePlan(self.strategy, self.lie_every)
        except ValueError as exc:
            raise ValueError(f"{self.KIND}: {exc}") from None
        if self.until is not None and self.until <= self.time:
            raise ValueError(f"{self.KIND}: until {self.until} <= time {self.time}")


@dataclass(frozen=True)
class ControllerRestore(FaultEvent):
    """End a replica compromise (it tells the truth again)."""

    KIND = "controller_restore"


#: JSON ``kind`` string -> event class
EVENT_KINDS: Dict[str, Type[FaultEvent]] = {
    cls.KIND: cls
    for cls in (
        LinkDown,
        LinkUp,
        LossBurst,
        BandwidthDegrade,
        RouterCrash,
        RouterRestart,
        BehaviorOn,
        BehaviorOff,
        AdversaryStrategy,
        ControllerCrash,
        ControllerRestart,
        ControllerCompromise,
        ControllerRestore,
    )
}


# ----------------------------------------------------------------------
# schedule container
# ----------------------------------------------------------------------
class FaultSchedule:
    """An ordered, validated collection of fault events."""

    def __init__(self, events: Sequence[FaultEvent] = (), name: str = "chaos") -> None:
        self.name = name
        # Stable sort by time: simultaneous events keep authoring order,
        # and the simulator breaks ties FIFO, so execution order is fixed.
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.time)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def validate(self) -> None:
        for event in self.events:
            event.validate()

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        records = []
        for event in self.events:
            record = {"kind": event.KIND}
            record.update(
                (k, v) for k, v in sorted(asdict(event).items()) if v is not None
            )
            records.append(record)
        return {"name": self.name, "events": records}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        events: List[FaultEvent] = []
        for record in data.get("events", []):
            record = dict(record)
            kind = record.pop("kind", None)
            event_cls = EVENT_KINDS.get(kind)
            if event_cls is None:
                raise ValueError(
                    f"unknown fault kind {kind!r} (known: {sorted(EVENT_KINDS)})"
                )
            allowed = {f.name for f in fields(event_cls)}
            unknown = set(record) - allowed
            if unknown:
                raise ValueError(
                    f"{kind}: unknown field(s) {sorted(unknown)} "
                    f"(allowed: {sorted(allowed)})"
                )
            events.append(event_cls(**record))
        schedule = cls(events, name=data.get("name", "chaos"))
        schedule.validate()
        return schedule

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_json_file(cls, path: str) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def __repr__(self) -> str:
        return f"FaultSchedule({self.name!r}, events={len(self.events)})"


def row_schedule(
    row: Row, k: int, at: float = 0.0, until: Optional[float] = None
) -> Optional[FaultSchedule]:
    """The schedule that arms one sweep row on a k-branch combiner (a
    data-plane row, active from ``at`` to ``until``) or a k-replica
    control plane (a control-plane row, at the times its fields give);
    ``None`` for the honest control."""
    targets = row.targets(k)
    if not targets:
        return None
    fields = dict(row.params)
    if row.plane == DATA:
        events: List[FaultEvent] = [
            AdversaryStrategy(at, t, strategy=row.entry, until=until, **fields)
            for t in targets
        ]
        return FaultSchedule(events, name=row.name)
    if entry(CONTROL, row.entry).factory is None:  # a fail-stop replica
        events = [ControllerCrash(target=t, **fields) for t in targets]
    else:
        events = [
            ControllerCompromise(target=t, strategy=row.entry, **fields)
            for t in targets
        ]
    # the fault-window source stays "chaos.ctrl_<row>", as reports show it
    return FaultSchedule(events, name=f"ctrl_{row.name}")


# ----------------------------------------------------------------------
# Gilbert–Elliott loss model
# ----------------------------------------------------------------------
class GilbertElliottLoss:
    """Two-state Markov (Gilbert–Elliott) per-packet loss decision.

    Each call advances the chain one step, then draws loss at the
    current state's rate.  All randomness comes from the single ``rng``
    handed in (a named stream), so installing the model never perturbs
    any other stream's sequence.
    """

    def __init__(
        self,
        rng,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 0.8,
    ) -> None:
        self._rng = rng
        self._p_gb = p_good_to_bad
        self._p_bg = p_bad_to_good
        self._loss_good = loss_good
        self._loss_bad = loss_bad
        self.bad = False

    def __call__(self) -> bool:
        if self.bad:
            if self._rng.random() < self._p_bg:
                self.bad = False
        elif self._rng.random() < self._p_gb:
            self.bad = True
        loss = self._loss_bad if self.bad else self._loss_good
        if loss <= 0.0:
            return False
        if loss >= 1.0:
            return True
        return self._rng.random() < loss


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
class ChaosEngine:
    """Compiles a :class:`FaultSchedule` onto a live :class:`Network`.

    Targets are resolved at :meth:`arm` time (misspelled names fail
    before the run starts, not mid-simulation).  Every applied fault is
    appended to :attr:`injections` and emitted as a ``chaos.<kind>``
    trace record, so RunReports carry the fault timeline.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        network: Network,
        aliases: Optional[Dict[str, str]] = None,
        control_plane: Optional["ReplicatedControlPlane"] = None,
        compare_core: Optional["CompareCore"] = None,
    ) -> None:
        self.schedule = schedule
        self.network = network
        self.aliases = dict(aliases or {})
        #: target of controller_* events; None = such events are an error
        self.control_plane = control_plane
        #: hook source for adversary_strategy events that need the
        #: compare's sweep / probation cadence; optional otherwise
        self.compare_core = compare_core
        #: switch name -> the adversary armed on it, by either event kind
        #: (runners read its branch, tamper count and active time)
        self.adversaries: Dict[str, AdversarialBehavior] = {}
        #: applied faults, in injection order: dicts of time/kind/target
        self.injections: List[dict] = []
        # pre-compromise behaviors, for behavior_off restoration
        self._saved_behaviors: Dict[str, object] = {}
        # original per-direction rates, for bandwidth restoration
        self._saved_rates: Dict[str, tuple] = {}
        self._c_faults = bind_counter(
            "chaos_faults_injected_total",
            "fault events applied by the chaos engine",
            labelnames=("kind",),
        )
        self._armed = False

    # -- target resolution ---------------------------------------------
    def resolve_link(self, target: str) -> Link:
        name = self.aliases.get(target, target)
        try:
            return self.network.link(name)
        except NetworkError:
            raise ValueError(
                f"no link named {name!r} (target {target!r}); "
                f"known: {sorted(link.name for link in self.network.links)}"
            ) from None

    def resolve_switch(self, target: str) -> OpenFlowSwitch:
        name = self.aliases.get(target, target)
        node = self.network.nodes.get(name)
        if node is None:
            raise ValueError(
                f"no node named {name!r} (target {target!r}); "
                f"known: {sorted(self.network.nodes)}"
            )
        if not isinstance(node, OpenFlowSwitch):
            raise ValueError(f"node {name!r} is not a switch")
        return node

    def resolve_replica(self, target: str) -> int:
        if self.control_plane is None:
            raise ValueError(
                f"controller fault targets {target!r} but no control plane "
                "was handed to the chaos engine"
            )
        name = self.aliases.get(target, target)
        return self.control_plane.replica_index(name)

    # -- compilation ----------------------------------------------------
    def arm(self) -> None:
        """Validate, resolve and schedule every event (call once)."""
        if self._armed:
            raise RuntimeError("chaos engine already armed")
        self._armed = True
        self.schedule.validate()
        sim = self.network.sim
        for event in self.schedule.events:
            apply = self._compile(event)  # resolves targets: fails fast
            sim.schedule_at(event.time, apply)

    def _compile(self, event: FaultEvent) -> Callable[[], None]:
        kind = event.KIND
        if kind in ("link_down", "link_up"):
            link = self.resolve_link(event.target)
            action = link.fail if kind == "link_down" else link.recover
            fn = lambda: action()  # noqa: E731
            if kind == "link_down" and event.until is not None:
                self.network.sim.schedule_at(
                    event.until, self._compile(LinkUp(event.until, event.target))
                )
        elif kind == "loss_burst":
            link = self.resolve_link(event.target)
            stream = self.network.rng.stream(
                f"chaos.{self.schedule.name}.{link.name}.gilbert_elliott"
            )
            model = GilbertElliottLoss(
                stream,
                p_good_to_bad=event.p_good_to_bad,
                p_bad_to_good=event.p_bad_to_good,
                loss_good=event.loss_good,
                loss_bad=event.loss_bad,
            )
            fn = lambda: link.set_loss_model(model)  # noqa: E731
            self.network.sim.schedule_at(event.until, lambda: link.set_loss_model(None))
        elif kind == "bandwidth":
            link = self.resolve_link(event.target)

            def fn() -> None:
                self._saved_rates.setdefault(link.name, link.rates_bps())
                link.scale_rate(event.factor)

            if event.until is not None:
                self.network.sim.schedule_at(
                    event.until, lambda: self._restore_rate(link)
                )
        elif kind == "router_crash":
            switch = self.resolve_switch(event.target)
            fn = lambda: switch.fail(wipe_flows=event.wipe_flows)  # noqa: E731
            if event.restart_at is not None:
                self.network.sim.schedule_at(
                    event.restart_at,
                    self._compile(
                        RouterRestart(
                            event.restart_at, event.target, event.restore_flows
                        )
                    ),
                )
        elif kind == "router_restart":
            switch = self.resolve_switch(event.target)
            fn = lambda: switch.recover(restore_flows=event.restore_flows)  # noqa: E731
        elif kind in ("behavior", "adversary_strategy"):
            switch = self.resolve_switch(event.target)
            behavior = self._build_adversary(event, switch)

            def fn() -> None:
                self._saved_behaviors.setdefault(switch.name, switch.behavior)
                switch.behavior = behavior
                behavior.activate(self.network.sim.now)

            if event.until is not None:
                self.network.sim.schedule_at(
                    event.until, self._compile(BehaviorOff(event.until, event.target))
                )
        elif kind == "behavior_off":
            switch = self.resolve_switch(event.target)
            fn = lambda: self._restore_behavior(switch)  # noqa: E731
        elif kind == "controller_crash":
            replica = self.resolve_replica(event.target)
            fn = lambda: self.control_plane.crash_replica(replica)  # noqa: E731
            if event.restart_at is not None:
                self.network.sim.schedule_at(
                    event.restart_at,
                    self._compile(ControllerRestart(event.restart_at, event.target)),
                )
        elif kind == "controller_restart":
            replica = self.resolve_replica(event.target)
            fn = lambda: self.control_plane.restart_replica(replica)  # noqa: E731
        elif kind == "controller_compromise":
            replica = self.resolve_replica(event.target)
            fn = lambda: self.control_plane.compromise_replica(  # noqa: E731
                replica,
                strategy=event.strategy,
                lie_every=event.lie_every,
                until=event.until,
            )
            if event.until is not None:
                self.network.sim.schedule_at(
                    event.until,
                    self._compile(ControllerRestore(event.until, event.target)),
                )
        elif kind == "controller_restore":
            replica = self.resolve_replica(event.target)
            fn = lambda: self.control_plane.restore_replica(replica)  # noqa: E731
        else:  # pragma: no cover - EVENT_KINDS and _compile kept in sync
            raise ValueError(f"unknown fault kind {kind!r}")

        def apply() -> None:
            fn()
            self._record(event)

        return apply

    def _restore_rate(self, link: Link) -> None:
        saved = self._saved_rates.pop(link.name, None)
        if saved is None:
            return
        current = link.rates_bps()
        if current[0] not in (None, 0.0) and saved[0] is not None:
            link.scale_rate(saved[0] / current[0])

    def _build_adversary(self, event, switch: OpenFlowSwitch) -> AdversarialBehavior:
        """Build a ``behavior`` / ``adversary_strategy`` event's catalogue
        entry on its own named rng stream, and record it with its branch."""
        arming = event
        if event.KIND == "behavior":  # the entry at its default knobs
            arming = AdversaryStrategy(
                event.time, event.target, event.behavior, until=event.until
            )
        branch = arming.branch
        if branch is None:
            branch = self._branch_index(event.target, switch.name)
        stream = self.network.rng.stream(
            f"chaos.{self.schedule.name}.{switch.name}.{arming.strategy}"
        )
        target = Target(
            switch, stream, self.compare_core, branch,
            rate=arming.rate, pace=arming.pace, window=arming.window,
        )
        try:
            behavior = build(arming.strategy, target)
        except ValueError as exc:
            raise ValueError(
                f"{event.KIND} on target {event.target!r} "
                f"(switch {switch.name!r}): {exc}; give the event an "
                "explicit 'branch' field or use an 'r<i>' target"
            ) from exc
        self.adversaries[switch.name] = behavior
        return behavior

    _BRANCH_RE = re.compile(r"r(\d+)$")

    def _branch_index(self, target: str, switch_name: str) -> Optional[int]:
        """Branch index from an ``r<i>`` alias or ``...r<i>`` switch name."""
        for name in (target, switch_name):
            match = self._BRANCH_RE.search(name)
            if match:
                return int(match.group(1))
        return None

    def _restore_behavior(self, switch: OpenFlowSwitch) -> None:
        outgoing = switch.behavior
        if outgoing is not None:
            outgoing.deactivate(self.network.sim.now)
        switch.behavior = self._saved_behaviors.pop(switch.name, None)

    def _record(self, event: FaultEvent) -> None:
        now = self.network.sim.now
        entry = {"time": now, "kind": event.KIND, "target": event.target}
        self.injections.append(entry)
        # the trace record (not the result-dict entry, which stays
        # bit-stable) also carries the fault window, so trajectory
        # queries can correlate packets with overlapping fault spans
        trace_data: Dict[str, Any] = {"target": event.target}
        until = getattr(event, "until", None)
        if until is not None:
            trace_data["until"] = until
        restart_at = getattr(event, "restart_at", None)
        if restart_at is not None:
            trace_data["restart_at"] = restart_at
        self.network.trace.emit(
            now, f"chaos.{event.KIND}", f"chaos.{self.schedule.name}",
            **trace_data,
        )
        if self._c_faults is not None:
            self._c_faults.labels(event.KIND).inc()


# ----------------------------------------------------------------------
# built-in battery (the aliases of any k >= 3 scenario: r0..r2,
# link_a{i}=ingress, link_b{i}=egress link of branch i)
# ----------------------------------------------------------------------
def builtin_battery() -> Dict[str, FaultSchedule]:
    """Short named schedules used by the chaos farm runner and tests."""
    return {
        "crash_restart": FaultSchedule(
            [RouterCrash(0.010, "r1", restart_at=0.025)],
            name="crash_restart",
        ),
        "link_flap": FaultSchedule(
            [LinkDown(0.008, "link_a1", until=0.022)],
            name="link_flap",
        ),
        "loss_burst": FaultSchedule(
            [
                LossBurst(
                    0.005,
                    "link_a2",
                    until=0.020,
                    p_good_to_bad=0.2,
                    p_bad_to_good=0.3,
                    loss_bad=0.9,
                )
            ],
            name="loss_burst",
        ),
        "brownout": FaultSchedule(
            [BandwidthDegrade(0.005, "link_b0", factor=0.25, until=0.020)],
            name="brownout",
        ),
        "midrun_byzantine": FaultSchedule(
            [BehaviorOn(0.010, "r2", behavior="payload_corruption", until=0.025)],
            name="midrun_byzantine",
        ),
    }
