"""Network container and topology builder.

:class:`Network` plays the role Mininet plays for the paper's prototype:
it owns the simulator, trace bus and RNG family, creates hosts and wires
links, and keeps an adjacency index so scenarios can ask "which port on
``s1`` faces ``r2``?" when installing flow rules.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.addresses import IpAddress, MacAddress
from repro.net.host import Host
from repro.net.link import Link
from repro.net.node import NetworkError, Node, Port
from repro.obs.metrics import StatBlock
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus


class Network:
    """A simulated network: nodes, links, and the shared simulation state."""

    def __init__(self, seed: int = 0, batch_train: int = 1) -> None:
        self.sim = Simulator()
        # Keeps no record until a reader calls `trace.start_retaining()`.
        self.trace = TraceBus()
        self.rng = RngStreams(seed)
        # Packet-train batching: train >= 2 attaches a BatchRealm so CBR
        # senders emit trains of that size; train == 1 leaves the
        # event-per-packet engine byte-for-byte untouched.
        self.batch_train = batch_train
        if batch_train >= 2:
            from repro.sim.realm import BatchRealm

            BatchRealm(self.sim, batch_train)
        elif batch_train < 1:
            raise NetworkError(f"batch_train must be >= 1, got {batch_train}")
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self._links_by_name: Dict[str, Link] = {}
        # links wired so far per ordered (a, b) pair: names parallel links
        self._pair_links: Dict[Tuple[str, str], int] = {}
        # adjacency[(a, b)] -> port on a that faces b (first such link wins)
        self._adjacency: Dict[Tuple[str, str], Port] = {}
        self._host_count = 0
        # Optional packet-lifecycle tracer; installed by PacketTracer.attach()
        # and propagated to hosts created afterwards.
        self.tracer = None
        StatBlock.publish_samples(
            lambda: {
                "sim_events_processed_total": self.sim.events_processed,
                "sim_pending_events_peak": self.sim.peak_pending_events,
                "sim_time_seconds": self.sim.now,
                "trace_records_retained_total": len(self.trace.records),
                "trace_records_dropped_total": self.trace.dropped_count,
            }
        )

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise NetworkError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def add_host(
        self,
        name: str,
        mac: Optional[MacAddress] = None,
        ip: Optional[IpAddress] = None,
        stack_delay: float = 0.0,
        stack_jitter: float = 0.0,
        recv_cost_base: float = 0.0,
        recv_cost_per_byte: float = 0.0,
        promiscuous: bool = False,
    ) -> Host:
        self._host_count += 1
        if mac is None:
            mac = MacAddress.from_index(self._host_count)
        if ip is None:
            ip = IpAddress.from_index(self._host_count)
        host = Host(
            self.sim,
            name,
            mac,
            ip,
            trace_bus=self.trace,
            stack_delay=stack_delay,
            stack_jitter=stack_jitter,
            rng=self.rng.stream(f"host.{name}"),
            recv_cost_base=recv_cost_base,
            recv_cost_per_byte=recv_cost_per_byte,
            promiscuous=promiscuous,
        )
        host.tracer = self.tracer
        self.add_node(host)
        return host

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NetworkError(f"no node named {name!r}") from None

    def host(self, name: str) -> Host:
        node = self.node(name)
        if not isinstance(node, Host):
            raise NetworkError(f"{name!r} is not a host")
        return node

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect(
        self,
        a: Node,
        b: Node,
        rate_bps: Optional[float] = None,
        delay: float = 0.0,
        loss: float = 0.0,
        queue_capacity: int = 100,
        port_a: Optional[int] = None,
        port_b: Optional[int] = None,
    ) -> Link:
        """Wire a duplex link between ``a`` and ``b``.

        Hosts use their fixed port 1; other nodes get auto-numbered ports
        unless explicit port numbers are given.  The link is named
        ``"<a>-<b>"``; the n-th parallel link between the same pair is
        ``"<a>-<b>#<n>"``, so every link stays addressable by name.
        """
        pair = (a.name, b.name)
        count = self._pair_links.get(pair, 0) + 1
        name = f"{a.name}-{b.name}" + (f"#{count}" if count > 1 else "")
        if name in self._links_by_name:
            raise NetworkError(f"duplicate link name {name!r}")
        pa = self._pick_port(a, port_a)
        pb = self._pick_port(b, port_b)
        link = Link(
            self.sim,
            pa,
            pb,
            rate_bps=rate_bps,
            delay=delay,
            loss=loss,
            queue_capacity=queue_capacity,
            trace_bus=self.trace,
            rng_streams=self.rng,
            name=name,
        )
        self.links.append(link)
        self._links_by_name[name] = link
        self._pair_links[pair] = count
        self._adjacency.setdefault((a.name, b.name), pa)
        self._adjacency.setdefault((b.name, a.name), pb)
        return link

    @staticmethod
    def _pick_port(node: Node, port_no: Optional[int]) -> Port:
        if isinstance(node, Host):
            port = node.port(1)
            if port.is_wired:
                raise NetworkError(f"host {node.name} is already wired")
            return port
        if port_no is not None:
            port = node.ports.get(port_no)
            if port is None:
                port = node.add_port(port_no)
            if port.is_wired:
                raise NetworkError(f"port {port.full_name} already wired")
            return port
        return node.add_port()

    def port_between(self, a: str, b: str) -> Port:
        """The port on node ``a`` that faces node ``b``."""
        try:
            return self._adjacency[(a, b)]
        except KeyError:
            raise NetworkError(f"no link between {a!r} and {b!r}") from None

    def port_no_between(self, a: str, b: str) -> int:
        return self.port_between(a, b).port_no

    def link(self, name: str) -> Link:
        try:
            return self._links_by_name[name]
        except KeyError:
            raise NetworkError(f"no link named {name!r}") from None

    def neighbors(self, name: str) -> List[str]:
        return sorted({b for (a, b) in self._adjacency if a == name})

    # ------------------------------------------------------------------
    # path computation
    # ------------------------------------------------------------------
    def disjoint_paths(self, src: str, dst: str, count: int) -> List[List[str]]:
        """Up to ``count`` node-disjoint paths (greedy BFS with removal).

        Used by the virtualized NetCo to pick diverse tunnels.  Greedy
        shortest-path-then-remove is not maximal in general but suffices
        for the Figure 9 ladder, where every rung is its own path.
        """
        paths: List[List[str]] = []
        banned: set = set()
        for _ in range(count):
            path = self._shortest_avoiding(src, dst, banned)
            if path is None:
                break
            paths.append(path)
            banned.update(path[1:-1])
        if not paths:
            raise NetworkError(f"no path from {src!r} to {dst!r}")
        return paths

    def _shortest_avoiding(
        self, src: str, dst: str, banned: Iterable[str]
    ) -> Optional[List[str]]:
        banned_set = set(banned)
        prev: Dict[str, str] = {}
        seen = {src}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nxt in self.neighbors(cur):
                if nxt in seen or (nxt in banned_set and nxt != dst):
                    continue
                seen.add(nxt)
                prev[nxt] = cur
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                queue.append(nxt)
        return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    def __repr__(self) -> str:
        return f"Network(nodes={len(self.nodes)}, links={len(self.links)})"
