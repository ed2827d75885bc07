"""SDN controller base class and control channel model.

A :class:`Controller` manages any number of switches.  The control channel
cost has two parts, both of which matter for reproducing the paper's POX3
result:

* the per-direction channel latency (configured per switch on
  ``connect_controller``) — piping every packet through the controller
  pays this twice; and
* the controller's own per-message processing cost (``proc_time``) in a
  single-server queue — interpreted-Python controllers like POX have a
  much higher per-packet cost than the paper's compiled C compare.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.obs.metrics import StatBlock
from repro.openflow.messages import FlowRemoved, PacketIn
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Datapath


class Controller:
    """Base controller: override the ``on_*`` handlers in applications."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "controller",
        trace_bus: Optional[TraceBus] = None,
        proc_time: float = 0.0,
        queue_capacity: int = 100_000,
    ) -> None:
        self.sim = sim
        self.name = name
        self.trace_bus = trace_bus
        self.proc_time = proc_time
        self.queue_capacity = queue_capacity
        self.switches: Dict[int, "Datapath"] = {}
        self._busy_until = 0.0
        self._in_service = 0
        self.messages_received = 0
        self.messages_dropped = 0
        #: messages the dispatcher had no handler for
        self.messages_unknown = 0
        #: when set, outbound messages are handed to this callable as
        #: ``outbox(switch, message)`` instead of the control channel —
        #: the replicated control plane uses it to route replica output
        #: through the trusted voter
        self.outbox: Optional[Callable[["Datapath", object], None]] = None
        StatBlock.publish_samples(
            lambda: {
                "controller_queue_drops_total": self.messages_dropped,
                "controller_unknown_messages_total": self.messages_unknown,
            },
            controller=name,
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_switch(self, switch: "Datapath") -> None:
        self.switches[switch.datapath_id] = switch
        self.on_switch_connected(switch)

    def switch(self, datapath_id: int) -> "Datapath":
        return self.switches[datapath_id]

    # ------------------------------------------------------------------
    # receive path (switch -> controller), with service-time modelling
    # ------------------------------------------------------------------
    def receive_from_switch(self, switch: "Datapath", message: object) -> None:
        self.messages_received += 1
        if self._in_service >= self.queue_capacity:
            self.messages_dropped += 1
            if self.tracing("controller.drop"):
                self.trace("controller.drop", reason="queue")
            return
        if self.proc_time <= 0.0:
            self._dispatch(switch, message)
            return
        sim = self.sim
        finish = max(sim.now, self._busy_until) + self.proc_time
        self._busy_until = finish
        self._in_service += 1
        sim.post(finish, self._serve_one, (switch, message))

    def _serve_one(self, switch: "Datapath", message: object) -> None:
        """Event: the controller CPU finishes one queued message."""
        self._in_service -= 1
        self._dispatch(switch, message)

    def _dispatch(self, switch: "Datapath", message: object) -> None:
        if isinstance(message, PacketIn):
            self.on_packet_in(switch, message)
        elif isinstance(message, FlowRemoved):
            self.on_flow_removed(switch, message)
        else:
            self.messages_unknown += 1
            if self.tracing("controller.unknown_message"):
                self.trace("controller.unknown_message", message=type(message).__name__)

    # ------------------------------------------------------------------
    # send path (controller -> switch)
    # ------------------------------------------------------------------
    def send(self, switch: "Datapath", message: object) -> None:
        """Send a FlowMod/PacketOut/etc. over the control channel."""
        if self.outbox is not None:
            self.outbox(switch, message)
            return
        sim = self.sim
        sim.post(
            sim.now + switch.controller_latency(),
            switch.handle_controller_message,
            (message,),
        )

    # ------------------------------------------------------------------
    # application hooks
    # ------------------------------------------------------------------
    def on_switch_connected(self, switch: "Datapath") -> None:
        """Called when a switch attaches; install proactive rules here."""

    def on_packet_in(self, switch: "Datapath", event: PacketIn) -> None:
        """Called on every packet-in.  Default: drop silently."""

    def on_flow_removed(self, switch: "Datapath", event: FlowRemoved) -> None:
        """Called when a flow entry expires or is deleted."""

    def tracing(self, topic: str) -> bool:
        """Whether a record on ``topic`` would be kept or delivered: a
        per-decision site asks before it builds the record's fields."""
        bus = self.trace_bus
        return bus is not None and bus.wants(topic)

    def trace(self, topic: str, **data: object) -> None:
        if self.trace_bus is not None:
            self.trace_bus.emit(self.sim.now, topic, self.name, **data)
