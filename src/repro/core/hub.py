"""The NetCo *hub*: a trusted, stateless packet multiplier.

Section IV: "The implementation of the hubs is simple and can be realized
in the datapath: the logic boils down to multiplying the packets, in a
stateless manner."

:class:`Hub` is that pure element: frames entering the upstream port are
copied to every downstream port; frames entering any downstream port are
merged out the upstream port.  It is used directly in the ``Dup3``/``Dup5``
evaluation scenarios (split without combine) and in ablations; the full
combiner endpoints (:mod:`repro.core.endpoint`) embed the same duplication
logic alongside the compare plumbing.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.node import Node, Port
from repro.net.packet import Packet
from repro.obs.metrics import StatBlock
from repro.sim import Simulator, TraceBus
from repro.transport import (
    ROLE_EGRESS,
    ROLE_FANOUT,
    DesTransport,
    SessionSpec,
)

UPSTREAM_PORT = 1


class Hub(Node):
    """Stateless multiplier: port 1 is upstream, every other port a branch."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace_bus: Optional[TraceBus] = None,
    ) -> None:
        self._branch_ports: Optional[List[Port]] = None
        self._fan_sessions: Optional[List] = None
        self._merge_session = None
        super().__init__(sim, name, trace_bus)
        self.transport = DesTransport(sim, name=f"{name}.transport")
        self.add_port(UPSTREAM_PORT)
        self.duplicated = 0
        self.merged = 0
        StatBlock.publish_samples(
            lambda: {
                "hub_duplicated_total": self.duplicated,
                "hub_merged_total": self.merged,
            },
            hub=name,
        )

    def add_port(self, port_no: Optional[int] = None) -> Port:
        self._branch_ports = None  # topology changed; re-derive lazily
        self._fan_sessions = None
        self._merge_session = None
        return super().add_port(port_no)

    def add_branch_port(self) -> Port:
        """Add one downstream branch port."""
        return self.add_port()

    @property
    def branch_count(self) -> int:
        return len(self.ports) - 1

    def _branches(self) -> List[Port]:
        """Downstream ports in port order (cached; wiring checked per use)."""
        ports = self._branch_ports
        if ports is None:
            ports = [
                port
                for port_no, port in sorted(self.ports.items())
                if port_no != UPSTREAM_PORT
            ]
            self._branch_ports = ports
        return ports

    def receive_batch_packet(self, batch, i: int, in_port: Port) -> None:
        """:meth:`receive` for one train packet: the fan-out shares the
        batch across branches (nothing downstream mutates it), so no
        per-branch copies are materialised."""
        now = self.sim.now
        if in_port.port_no == UPSTREAM_PORT:
            for port in self._branches():
                if port.is_wired:
                    port.send_batch_packet(batch, i, now)
                    self.duplicated += 1
        else:
            upstream = self.ports[UPSTREAM_PORT]
            if upstream.is_wired:
                upstream.send_batch_packet(batch, i, now)
                self.merged += 1

    def _sessions(self) -> List:
        """One fanout session per branch port, in port order (cached;
        wiring still checked per use, as :meth:`_branches` promises)."""
        sessions = self._fan_sessions
        if sessions is None:
            sessions = [
                self.transport.session(
                    SessionSpec(self.name, ROLE_FANOUT, branch), port=port
                )
                for branch, port in enumerate(self._branches())
            ]
            self._fan_sessions = sessions
        return sessions

    def receive(self, packet: Packet, in_port: Port) -> None:
        if in_port.port_no == UPSTREAM_PORT:
            fanout = 0
            for session in self._sessions():
                if session.port.is_wired:
                    session.send(packet.copy())
                    self.duplicated += 1
                    fanout += 1
            if packet.trace_id is not None:
                self.trace("hub.dup", trace=packet.trace_id, fanout=fanout)
        else:
            upstream = self.ports[UPSTREAM_PORT]
            if upstream.is_wired:
                session = self._merge_session
                if session is None:
                    session = self.transport.session(
                        SessionSpec(self.name, ROLE_EGRESS, UPSTREAM_PORT),
                        port=upstream,
                    )
                    self._merge_session = session
                session.send(packet.copy())
                self.merged += 1
