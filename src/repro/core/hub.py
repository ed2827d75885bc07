"""``Hub``: a combiner endpoint in its hub role alone.

Section IV: "the logic boils down to multiplying the packets, in a
stateless manner."  That logic has one implementation, the external
ingress path of :class:`~repro.core.endpoint.CombinerEndpoint` (in
``dup`` mode, the Dup3/Dup5 scenarios, its branch arrivals merge back out
unfiltered).  No scenario builds this class; ``bench/layers.py`` times a
three-way fan-out through it (``core.hub.fanout3_us``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.endpoint import MODE_DUP, CombinerEndpoint
from repro.net.node import Port
from repro.sim import Simulator, TraceBus

UPSTREAM_PORT = 1


class Hub(CombinerEndpoint):
    """Port 1 is upstream; every port added after it is the next branch."""

    def __init__(self, sim: Simulator, name: str,
                 trace_bus: Optional[TraceBus] = None) -> None:
        super().__init__(sim, name, trace_bus=trace_bus, mode=MODE_DUP)
        self.add_port(UPSTREAM_PORT)

    def add_port(self, port_no: Optional[int] = None) -> Port:
        port = super().add_port(port_no)
        if port.port_no != UPSTREAM_PORT:
            self.assign_branch(port.port_no, len(self.branch_ports))
        return port
