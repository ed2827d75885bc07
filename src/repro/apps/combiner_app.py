"""The compare as an SDN controller application — the paper's **POX3**.

"For comparison, we compare the performance of our C-based compare to a
compare implemented as a POX controller application."  Here the compare
core runs inside a controller: every candidate copy crosses the OpenFlow
control channel as a packet-in, pays the controller's (interpreted-
Python-scale) per-message processing cost, and the release travels back
as a packet-out.  The paper attributes POX3's poor showing to exactly
these two costs — language overhead and piping every packet through the
controller — both of which are explicit parameters here.

Both directions are transport sessions on the OpenFlow control channel:
:class:`ControlChannelCollectSession` on the endpoint's side (each copy a
packet-in whose ``in_port`` names its branch) and
:class:`ControlChannelReleaseSession` on the app's (each release a
packet-out).  :meth:`PoxStyleCompareApp.attach` wires one endpoint.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.compare import CompareContext, CompareCore
from repro.core.endpoint import CombinerEndpoint
from repro.net.node import Datapath
from repro.net.packet import Packet
from repro.openflow.controller import Controller
from repro.openflow.messages import PACKETIN_NO_MATCH, PacketIn, PacketOut
from repro.transport.base import (
    ROLE_COLLECT,
    ROLE_RELEASE,
    Session,
    SessionSpec,
    Transport,
)


class ControlChannelCollectSession(Session):
    """Collect-role session over the OpenFlow control channel.

    Each message is a packet-in whose ``in_port`` encodes the branch —
    the paper's reference transport.  Claims are not representable on
    this channel (packet-ins carry no sideband), matching the original
    controller path.
    """

    def __init__(self, transport: Transport, endpoint: CombinerEndpoint) -> None:
        super().__init__(transport, SessionSpec(endpoint.name, ROLE_COLLECT))
        self.endpoint = endpoint

    def send(
        self,
        packet: Packet,
        branch: Optional[int] = None,
        claim: Optional[int] = None,
    ) -> None:
        self.stats.tx_messages += 1
        endpoint = self.endpoint
        endpoint.stats.packet_ins += 1
        endpoint._send_to_controller(
            PacketIn(
                datapath_id=endpoint.datapath_id,
                packet=packet,
                in_port=endpoint.port_of_branch(branch),
                reason=PACKETIN_NO_MATCH,
            )
        )


class ControlChannelReleaseSession(Session):
    """Release-role session over the OpenFlow control channel: each
    message is a packet-out back to the collecting endpoint."""

    def __init__(
        self,
        transport: Transport,
        app: "PoxStyleCompareApp",
        endpoint: CombinerEndpoint,
    ) -> None:
        super().__init__(transport, SessionSpec(endpoint.name, ROLE_RELEASE))
        self.app = app
        self.endpoint = endpoint

    def send(
        self,
        packet: object,
        branch: Optional[int] = None,
        claim: Optional[int] = None,
    ) -> None:
        self.stats.tx_messages += 1
        self.app.send(
            self.endpoint, PacketOut(packet=packet, actions=[], in_port=0)
        )


class PoxStyleCompareApp(Controller):
    """Controller application hosting a :class:`CompareCore`.

    :meth:`attach` each combiner endpoint: it then submits branch copies
    as packet-ins and treats packet-outs as release decisions.
    """

    def __init__(
        self,
        sim,
        core: CompareCore,
        name: str = "pox-compare",
        trace_bus=None,
        proc_time: float = 0.0,
    ) -> None:
        super().__init__(sim, name, trace_bus=trace_bus, proc_time=proc_time)
        self.core = core
        self.transport = Transport(name=f"{name}.transport")
        self._sessions: Dict[int, Tuple[Session, CompareContext]] = {}

    def attach(self, endpoint: CombinerEndpoint, latency: float) -> None:
        """Connect ``endpoint`` with a one-way channel ``latency`` and make
        its packet-ins the way its copies reach the compare."""
        endpoint.connect_controller(self, latency=latency)
        endpoint.collect_over(
            ControlChannelCollectSession(endpoint.transport, endpoint)
        )

    def _sessions_for(
        self, endpoint: CombinerEndpoint
    ) -> Tuple[Session, CompareContext]:
        entry = self._sessions.get(endpoint.datapath_id)
        if entry is None:
            release = self.transport.adopt(
                ControlChannelReleaseSession(self.transport, self, endpoint)
            )
            context = CompareContext(
                scope=endpoint.name,
                release=release.send,
                block_branch=endpoint.block_branch_ingress,
            )
            collect = self.transport.adopt(
                Session(self.transport, SessionSpec(endpoint.name, ROLE_COLLECT))
            )
            collect.set_receiver(
                lambda packet, meta, context=context: self.core.submit(
                    packet, meta["branch"], context
                )
            )
            entry = (collect, context)
            self._sessions[endpoint.datapath_id] = entry
        return entry

    def on_packet_in(self, switch: Datapath, event: PacketIn) -> None:
        if not isinstance(switch, CombinerEndpoint):
            if self.tracing("pox_compare.not_an_endpoint"):
                self.trace("pox_compare.not_an_endpoint", datapath=switch.datapath_id)
            return
        branch = switch.branch_of_port(event.in_port)
        if branch is None:
            if self.tracing("pox_compare.unknown_branch"):
                self.trace("pox_compare.unknown_branch", in_port=event.in_port)
            return
        collect, _context = self._sessions_for(switch)
        collect.deliver(event.packet, {"branch": branch})
