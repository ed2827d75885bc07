"""A classic L2 learning-switch controller application.

The standard first SDN app (POX's ``l2_learning``): learn the source MAC
on packet-in, install a dl_dst flow toward the learned port, flood
unknowns.  Used by examples and tests as the benign baseline control
plane, and by the virtualized-NetCo scenario for the non-tunnelled edge.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.net.addresses import MacAddress
from repro.openflow.actions import Output, flood
from repro.openflow.controller import Controller
from repro.openflow.match import Match
from repro.openflow.messages import FLOWMOD_ADD, FlowMod, PacketIn, PacketOut
from repro.openflow.switch import OpenFlowSwitch

#: addresses are ints: the decision compares against this one in C
_BROADCAST = MacAddress.BROADCAST


class LearningSwitchApp(Controller):
    """Reactive MAC learning over any number of switches."""

    def __init__(
        self,
        sim,
        name: str = "l2-learning",
        trace_bus=None,
        proc_time: float = 0.0,
        flow_idle_timeout: float = 0.0,
        flow_hard_timeout: float = 0.0,
        flow_priority: int = 10,
    ) -> None:
        super().__init__(sim, name, trace_bus=trace_bus, proc_time=proc_time)
        self.flow_idle_timeout = flow_idle_timeout
        self.flow_hard_timeout = flow_hard_timeout
        self.flow_priority = flow_priority
        # (datapath_id, mac) -> port
        self.tables: Dict[Tuple[int, MacAddress], int] = {}
        self.floods = 0
        self.flows_installed = 0

    def on_packet_in(self, switch: OpenFlowSwitch, event: PacketIn) -> None:
        packet = event.packet
        eth = packet.fields()[0]  # read-only: skip CoW materialisation
        src, dst = eth.src, eth.dst
        in_port = event.in_port
        dpid = switch.datapath_id
        tables = self.tables
        if not (src >> 40) & 1:  # the group bit: never learn a multicast source
            tables[(dpid, src)] = in_port
        out_port = tables.get((dpid, dst))
        if out_port is None or dst == _BROADCAST:
            self.floods += 1
            self.send(switch, PacketOut(packet, (flood(),), in_port))
            return
        self.flows_installed += 1
        # actions are read-only values: both messages may hold one tuple
        actions = (Output(out_port),)
        self.send(
            switch,
            FlowMod(
                FLOWMOD_ADD,
                Match(dl_dst=dst),
                actions,
                self.flow_priority,
                self.flow_idle_timeout,
                self.flow_hard_timeout,
            ),
        )
        self.send(switch, PacketOut(packet, actions, in_port))

    def learned_port(self, switch: OpenFlowSwitch, mac: MacAddress) -> int:
        return self.tables.get((switch.datapath_id, MacAddress(mac)), -1)
