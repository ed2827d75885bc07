"""k-replica control plane with quorum-voted output.

:class:`ReplicatedControlPlane` applies NetCo's robust-combiner idea to
the controller itself (ROADMAP item 5; P4BFT / Carbide in PAPERS.md are
the reference designs).  It is itself a :class:`~repro.openflow.
controller.Controller`, so switches attach to it exactly like to a plain
controller, but internally it:

* runs ``k`` independent replicas of the same application logic (built
  by a caller-supplied factory, so each replica owns its state and can
  own its rng stream);
* fans every switch-to-controller message (PacketIn, FlowRemoved) to
  all live replicas — PacketIns carry a copy-on-write clone of the
  packet so a misbehaving replica cannot corrupt its siblings' input;
* intercepts every replica's outbound FlowMod/PacketOut via the
  :attr:`Controller.outbox` hook and submits it to a trusted
  :class:`~repro.ctrl.compare.ControlCompare`, which releases a message
  to the switch only once a strict majority produced a byte-identical
  copy.

With ``k=1`` the whole apparatus degrades to a pass-through: the single
replica's output goes straight to the switch on the same schedule as an
unreplicated controller, byte for byte.  (It must bypass the voter
entirely — a quorum-of-1 VoteBook would still tombstone-deduplicate
identical messages within the vote timeout, which a real controller
does not.)

The compromise hooks (the control-plane entries of
:mod:`repro.adversary.catalogue`) model a *lying* replica: its flow-mods
are mutated before submission, so it keeps voting — and
keeps failing to assemble a majority — which is the divergence signature
the voter alarms on.  Strategies mutate FlowMods only; PacketOuts pass
clean so the honest majority's data-plane schedule is unaffected.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.adversary.catalogue import lie
from repro.core.alarms import AlarmSink
from repro.ctrl.compare import ControlCompare, ControlCompareConfig
from repro.openflow.controller import Controller
from repro.openflow.messages import (
    FlowMod,
    FlowRemoved,
    PacketIn,
    PacketOut,
)
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.openflow.switch import OpenFlowSwitch

__all__ = [
    "CompromisePlan",
    "ReplicaHandle",
    "ReplicatedControlPlane",
]


@dataclass
class CompromisePlan:
    """An active lie campaign against one replica.

    ``strategy`` names a control-plane catalogue entry; its mutator is
    resolved here, once.  ``lie_every`` > 1 models an adversary pacing
    its lies to stretch out detection (and, against a probation window,
    to evade re-admission resets); ``until`` bounds the campaign in
    simulated time.
    """

    strategy: str
    lie_every: int = 1
    until: Optional[float] = None
    flow_mods_seen: int = 0
    lies_told: int = 0
    _mutate: Callable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.lie_every < 1:
            raise ValueError(f"lie_every must be >= 1, got {self.lie_every}")
        self._mutate = lie(self.strategy)

    def apply(self, message: object, now: float) -> "tuple[object | None, bool]":
        """Return (possibly mutated message, tainted?)."""
        if self.until is not None and now >= self.until:
            return message, False
        if not isinstance(message, FlowMod):
            return message, False
        self.flow_mods_seen += 1
        if self.flow_mods_seen % self.lie_every != 0:
            return message, False
        mutated = self._mutate(message)
        self.lies_told += 1
        if mutated is message:
            return message, False
        return mutated, True


@dataclass
class ReplicaHandle:
    """Bookkeeping for one controller replica."""

    index: int
    name: str
    controller: Controller
    crashed: bool = False
    compromise: Optional[CompromisePlan] = None
    messages_emitted: int = 0
    malicious_emitted: int = 0
    first_tainted_at: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "crashed": self.crashed,
            "compromised": self.compromise is not None,
            "messages_emitted": self.messages_emitted,
            "malicious_emitted": self.malicious_emitted,
            "first_tainted_at": self.first_tainted_at,
        }


class ReplicatedControlPlane(Controller):
    """Fan in, replicate, vote, fan out."""

    def __init__(
        self,
        sim: Simulator,
        replica_factory: Callable[[int, str], Controller],
        k: int = 3,
        name: str = "ctrl",
        trace_bus: Optional[TraceBus] = None,
        compare_config: Optional[ControlCompareConfig] = None,
        alarm_sink: Optional[AlarmSink] = None,
        proc_time: float = 0.0,
        queue_capacity: int = 100_000,
    ) -> None:
        super().__init__(
            sim,
            name=name,
            trace_bus=trace_bus,
            proc_time=proc_time,
            queue_capacity=queue_capacity,
        )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        config = compare_config or ControlCompareConfig()
        config = dataclasses.replace(config, k=k)
        self.k = k
        self.replicas: List[ReplicaHandle] = []
        for index in range(k):
            replica_name = f"{name}_c{index}"
            controller = replica_factory(index, replica_name)
            handle = ReplicaHandle(index=index, name=replica_name, controller=controller)
            controller.outbox = partial(self._replica_emit, handle)
            self.replicas.append(handle)
        self.compare = ControlCompare(
            sim,
            config,
            name=f"{name}_compare",
            alarm_sink=alarm_sink,
            trace_bus=trace_bus,
        )
        # trace id of the marked data-plane packet whose PacketIn is
        # being fanned out right now (replicas answer synchronously, so
        # setting it around the fan-out loop attributes their votes)
        self._cause_trace: Optional[int] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_switch(self, switch: "OpenFlowSwitch") -> None:
        self.switches[switch.datapath_id] = switch
        # A voted message leaves like any controller's: the plane's own
        # outbox is unset, so `send` is the plain channel post.
        self.compare.register_switch(switch.datapath_id, partial(self.send, switch))
        for handle in self.replicas:
            # Replicas know the switch (tables, datapath ids) but their
            # output is rerouted through the voter by the outbox hook.
            handle.controller.register_switch(switch)
        self.on_switch_connected(switch)

    # ------------------------------------------------------------------
    # fan-in (switch -> replicas)
    # ------------------------------------------------------------------
    def on_packet_in(self, switch: "OpenFlowSwitch", event: PacketIn) -> None:
        packet = event.packet
        self._cause_trace = packet.trace_id
        try:
            for handle in self.replicas:
                if handle.crashed:
                    continue
                # Each replica gets its own packet clone: a replica that
                # scribbles on headers must not poison the others' view
                # of the event.
                handle.controller.on_packet_in(
                    switch,
                    PacketIn(
                        event.datapath_id,
                        packet.copy(),
                        event.in_port,
                        event.reason,
                        event.buffer_id,
                    ),
                )
        finally:
            self._cause_trace = None

    def on_flow_removed(self, switch: "OpenFlowSwitch", event: FlowRemoved) -> None:
        for handle in self.replicas:
            if not handle.crashed:
                handle.controller._dispatch(switch, event)

    # ------------------------------------------------------------------
    # fan-out (replicas -> voter -> switch)
    # ------------------------------------------------------------------
    def _replica_emit(
        self, handle: ReplicaHandle, switch: "OpenFlowSwitch", message: object
    ) -> None:
        handle.messages_emitted += 1
        tainted = False
        if handle.compromise is not None:
            message, tainted = handle.compromise.apply(message, self.sim.now)
            if tainted:
                handle.malicious_emitted += 1
                if handle.first_tainted_at is None:
                    handle.first_tainted_at = self.sim.now
                if self.tracing("ctrl.replica_lie"):
                    self.trace(
                        "ctrl.replica_lie",
                        replica=handle.index,
                        strategy=handle.compromise.strategy,
                        dpid=switch.datapath_id,
                    )
            if message is None:
                return
        if self.k == 1:
            # Unreplicated: straight pass-through, identical timing and
            # bytes to a plain Controller.send().
            self.send(switch, message)
            return
        # A PacketOut carries its packet's own trace id; FlowMods fall
        # back to the PacketIn being fanned out right now (if marked).
        trace = None
        if type(message) is PacketOut and message.packet is not None:
            trace = message.packet.trace_id
        if trace is None:
            trace = self._cause_trace
        self.compare.submit(handle.index, switch.datapath_id, message, tainted, trace)

    # ------------------------------------------------------------------
    # replica fault/compromise API (driven by the chaos engine)
    # ------------------------------------------------------------------
    def replica_index(self, target: "int | str") -> int:
        """Resolve a replica by index, short ("c1") or full name."""
        if isinstance(target, int):
            if not 0 <= target < self.k:
                raise KeyError(f"no replica {target} (k={self.k})")
            return target
        for handle in self.replicas:
            if target == handle.name or target == f"c{handle.index}":
                return handle.index
        known = ", ".join(h.name for h in self.replicas)
        raise KeyError(f"unknown replica {target!r} (known: {known})")

    def crash_replica(self, target: "int | str") -> None:
        """Fail-stop one replica: it stops receiving and emitting."""
        handle = self.replicas[self.replica_index(target)]
        if handle.crashed:
            return
        handle.crashed = True
        self.trace("ctrl.replica_crash", replica=handle.index)

    def restart_replica(self, target: "int | str") -> None:
        """Bring a crashed replica back (with whatever state it kept).

        Its app state is stale relative to its siblings, so its first
        decisions may diverge until it re-learns — the voter masks that
        and, if persistent, quarantines it into probation.
        """
        handle = self.replicas[self.replica_index(target)]
        if not handle.crashed:
            return
        handle.crashed = False
        self.trace("ctrl.replica_restart", replica=handle.index)

    def compromise_replica(
        self,
        target: "int | str",
        strategy: str = "blackhole",
        lie_every: int = 1,
        until: Optional[float] = None,
    ) -> None:
        """Turn one replica into a liar (its output is mutated)."""
        plan = CompromisePlan(strategy=strategy, lie_every=lie_every, until=until)
        handle = self.replicas[self.replica_index(target)]
        handle.compromise = plan
        self.trace(
            "ctrl.replica_compromise",
            replica=handle.index,
            strategy=strategy,
            lie_every=lie_every,
        )

    def restore_replica(self, target: "int | str") -> None:
        """End a compromise campaign (the replica tells the truth again)."""
        handle = self.replicas[self.replica_index(target)]
        if handle.compromise is None:
            return
        handle.compromise = None
        self.trace("ctrl.replica_restore", replica=handle.index)

    # ------------------------------------------------------------------
    def replica_stats(self) -> List[dict]:
        return [handle.as_dict() for handle in self.replicas]

    def __repr__(self) -> str:
        return f"ReplicatedControlPlane({self.name}, k={self.k})"
