"""Proactive static MAC-destination routing.

Section VI: "we set up the Mininet network with routing based on MAC
destination addresses".  :class:`StaticMacRouter` computes shortest
paths over a :class:`~repro.net.topology.Network` and installs a
``dl_dst -> output port`` rule on every switch along each host-to-host
path — the control plane of the datacenter case study.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.virtual import VirtualEdge
from repro.net.host import Host
from repro.net.topology import Network
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch


class StaticMacRouter:
    """Installs MAC-destination routes along explicit or shortest paths."""

    def __init__(self, network: Network, priority: int = 10) -> None:
        self.network = network
        self.priority = priority

    # ------------------------------------------------------------------
    def install_path(self, path: List[str], dst_host: Host) -> None:
        """Program every switch on ``path`` to reach ``dst_host``.

        ``path`` is a node-name list ending at the destination host.
        """
        if len(path) < 2:
            raise ValueError("path must contain at least source and destination")
        if path[-1] != dst_host.name:
            raise ValueError(
                f"path must end at {dst_host.name!r}, ends at {path[-1]!r}"
            )
        for here, nxt in zip(path[:-1], path[1:]):
            node = self.network.node(here)
            out_port = self.network.port_no_between(here, nxt)
            if isinstance(node, OpenFlowSwitch):
                node.install(
                    Match(dl_dst=dst_host.mac), [Output(out_port)],
                    priority=self.priority,
                )
            elif isinstance(node, VirtualEdge):
                node.route(dst_host.mac, out_port)
            # hosts on the path don't take rules

    def install_pair(self, a: Host, b: Host) -> Tuple[List[str], List[str]]:
        """Shortest-path routes in both directions between two hosts."""
        forward = self.network.shortest_path(a.name, b.name)
        backward = self.network.shortest_path(b.name, a.name)
        self.install_path(forward, b)
        self.install_path(backward, a)
        return forward, backward
