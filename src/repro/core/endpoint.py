"""Trusted combiner endpoints (the ``s1``/``s2`` elements of Figure 3).

A :class:`CombinerEndpoint` is the trusted, simple device that brackets
the bundle of untrusted routers.  Depending on the direction a packet
flows it acts as

* **hub** — packets arriving on an *external* port are duplicated onto
  every *branch* port (one untrusted router per branch);
* **collector** — packets arriving on a *branch* port are handed to the
  compare, tagged with the branch they arrived from (the paper does this
  with an OpenFlow packet-in whose ``in_port`` identifies the router);
* **egress** — packets released by the compare are forwarded onward
  "based on the switch's MAC table".

The endpoint is a :class:`~repro.net.node.Datapath` (the service queue it
shares with the untrusted switches) plus :class:`BranchPorts`, and no
OpenFlow pipeline: no flow table, no packet buffer, no behaviour hook.
The POX3 scenario reaches the compare over the endpoint's controller
channel instead of its compare port
(:mod:`repro.apps.combiner_app` supplies that collect session).  In
``dup`` mode (the Dup3/Dup5 scenarios) the compare is bypassed: branch
arrivals are forwarded directly, duplicates and all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.addresses import MacAddress
from repro.net.node import Datapath, NetworkError
from repro.obs.metrics import StatBlock
from repro.transport.base import (
    ROLE_COLLECT,
    ROLE_FANOUT,
    ROLE_RELEASE,
    Session,
    SessionSpec,
)
from repro.transport.des import DesTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceBus

MODE_COMBINE = "combine"
MODE_DUP = "dup"


class EndpointStats(StatBlock):
    """Counters for one combiner endpoint."""

    __slots__ = (
        "external_in",
        "duplicated",
        "collected",
        "submitted",
        "released_out",
        "flooded",
    )


class BranchPorts:
    """Branch identity read off a trusted datapath's own ports, for those
    that collect copies for a vote (:class:`CombinerEndpoint`,
    :class:`~repro.core.virtual.VirtualEgress`): a copy's branch is the
    port it arrived on, never something the branch wrote."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._branch_by_port: Dict[int, int] = {}
        self._port_by_branch: Dict[int, int] = {}
        # Optional egress claim per branch port: for an n-port shielded
        # router each replica has one link per original egress port, so a
        # copy's arrival port encodes "replica i claims egress m".  The
        # vote is then over (packet bytes, claimed egress) — the majority
        # must agree on the forwarding decision too, as in Figure 2.
        self._claim_by_port: Dict[int, int] = {}

    def _rewired(self) -> None:  # the port roles changed
        pass

    def assign_branch(
        self, port_no: int, branch: int, claim: Optional[int] = None
    ) -> None:
        """Mark ``port_no`` as a branch port toward untrusted router
        ``branch``; ``claim`` optionally names the external egress port
        this branch link stands for (one-endpoint combiner wiring)."""
        if port_no in self._branch_by_port:
            raise NetworkError(f"{self.name}: port {port_no} already a branch")
        self._branch_by_port[port_no] = branch
        self._port_by_branch.setdefault(branch, port_no)
        if claim is not None:
            self._claim_by_port[port_no] = claim
        self._rewired()

    @property
    def branch_ports(self) -> List[int]:
        return sorted(self._branch_by_port)

    @property
    def branch_ids(self) -> List[int]:
        return sorted(self._port_by_branch)

    def port_of_branch(self, branch: int) -> int:
        return self._port_by_branch[branch]

    def branch_of_port(self, port_no: int) -> Optional[int]:
        return self._branch_by_port.get(port_no)

    def block_branch_ingress(self, branch: int, duration: float) -> None:
        """Block every port belonging to ``branch`` (a replica may have
        several links in the one-endpoint wiring); a blocked port refuses
        traffic in both directions."""
        for port_no, port_branch in self._branch_by_port.items():
            if port_branch == branch:
                self.block_port(port_no, duration)


class CombinerEndpoint(BranchPorts, Datapath):
    """One trusted bracket of a NetCo combiner (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace_bus: Optional[TraceBus] = None,
        proc_time: float = 0.0,
        proc_per_byte: float = 0.0,
        cpu=None,
        mode: str = MODE_COMBINE,
        service_queue_capacity: int = 1000,
    ) -> None:
        if mode not in (MODE_COMBINE, MODE_DUP):
            raise ValueError(f"unknown endpoint mode {mode!r}")
        super().__init__(
            sim,
            name,
            trace_bus=trace_bus,
            proc_time=proc_time,
            proc_per_byte=proc_per_byte,
            cpu=cpu,
            service_queue_capacity=service_queue_capacity,
        )
        self.mode = mode
        # fan-out, collect and release sessions (forwarding uses the port)
        self.transport = DesTransport(sim, name=f"{name}.transport")
        self.estats = EndpointStats().publish("endpoint", endpoint=name)
        self._compare_port_no: Optional[int] = None
        self._mac_table: Dict[MacAddress, int] = {}
        # Transport sessions for the collect and release directions (the
        # collect session is set on wiring because POX3 replaces it with
        # a control-channel session).
        self._collect_session: Optional[Session] = None
        self._release_session: Optional[Session] = None
        # Wiring resolved once, for the per-packet and the train paths
        # alike (it is static once the testbed is built; any port or role
        # change drops both): the fan-out sessions, in branch order, and
        # the external ports ``(numbers, ports in port order)``.
        self._fan_cache: Optional[List[Session]] = None
        self._ext_cache: Optional[Tuple[frozenset, List]] = None

    def add_port(self, port_no: Optional[int] = None):
        self._rewired()
        return super().add_port(port_no)

    def _rewired(self) -> None:
        self._fan_cache = None
        self._ext_cache = None

    # ------------------------------------------------------------------
    # wiring (done by the combiner builder)
    # ------------------------------------------------------------------
    def assign_compare_port(self, port_no: int) -> None:
        """Mark ``port_no`` as the in-band attachment to the compare host."""
        self._compare_port_no = port_no
        self._rewired()
        port = self.port(port_no)
        self._collect_session = self.transport.session(
            SessionSpec(self.name, ROLE_COLLECT), port=port
        )
        self._release_session = self.transport.session(
            SessionSpec(self.name, ROLE_RELEASE), port=port
        )

    def collect_over(self, session: Session) -> None:
        """Hand branch copies to ``session`` instead of a compare port:
        POX3's packet-ins over the controller channel."""
        self._collect_session = self.transport.adopt(session)

    def external_ports(self) -> List[int]:
        """Every wired port that is neither a branch nor the compare port."""
        return [
            no
            for no, port in sorted(self.ports.items())
            if port.is_wired
            and no not in self._branch_by_port
            and no != self._compare_port_no
        ]

    def _resolve_fan(self) -> List[Session]:
        """Fill ``_fan_cache``: the hub's fan-out sessions, in branch
        order, over wired branch ports."""
        fan = []
        for branch in self.branch_ids:
            port = self.ports.get(self._port_by_branch[branch])
            if port is not None and port.is_wired:
                fan.append(self.transport.session(
                    SessionSpec(self.name, ROLE_FANOUT, branch), port=port
                ))
        self._fan_cache = fan
        return fan

    def _resolve_externals(self) -> Tuple[frozenset, List]:
        """Fill ``_ext_cache``: :meth:`external_ports` as
        ``(numbers, ports in port order)``."""
        nos = self.external_ports()
        ext = (frozenset(nos), [self.ports[no] for no in nos])
        self._ext_cache = ext
        return ext

    # ------------------------------------------------------------------
    # datapath (replaces the OpenFlow pipeline with the trusted logic)
    # ------------------------------------------------------------------
    def _process(self, packet: Packet, in_port_no: int) -> None:
        if in_port_no in self._branch_by_port:
            self._from_branch(
                packet,
                self._branch_by_port[in_port_no],
                claim=self._claim_by_port.get(in_port_no),
            )
        elif in_port_no == self._compare_port_no:
            # Inbound leg of the release session: count it there, then the
            # egress role (the claim rides in meta, the DES wire format).
            self._release_session.stats.rx_messages += 1
            self.handle_release(packet)
        else:
            self._from_external(packet, in_port_no)

    # ------------------------------------------------------------------
    # packet-train fast path (batch realm)
    # ------------------------------------------------------------------
    def _serve_batch_packet(self, batch, i: int, in_port_no: int, now: float) -> None:
        """:meth:`_process` for one train packet (clock already patched).

        Mirrors the trusted routing exactly; the hand-off to the compare
        is a *vote boundary* — the train splits there so vote keys,
        alarms and quarantine behaviour are bit-identical.
        """
        branch = self._branch_by_port.get(in_port_no)
        if branch is not None:
            self.estats.collected += 1
            if self.mode == MODE_DUP:
                self._forward_external_batch(batch, i, now)
                return
            self._submit_batch_packet(
                batch, i, branch, self._claim_by_port.get(in_port_no)
            )
            return
        if in_port_no == self._compare_port_no:
            # Releases only ever arrive as ordinary packets; defensive.
            self.sim.realm.note_fallback("mixed-headers")
            self.handle_release(batch.packet_at(i))
            return
        self._from_external_batch(batch, i, in_port_no, now)

    def _from_external_batch(self, batch, i: int, in_port_no: int, now: float) -> None:
        """Hub role for one train packet: learn, fan the shared batch."""
        self.estats.external_in += 1
        src = batch.template.fields()[0].src
        if not src.is_multicast:
            self._mac_table[src] = in_port_no
        fan = self._fan_cache
        if fan is None:
            fan = self._resolve_fan()
        estats = self.estats
        for session in fan:
            session.port.send_batch_packet(batch, i, now)
            estats.duplicated += 1

    def _submit_batch_packet(
        self, batch, i: int, branch: int, claim: Optional[int]
    ) -> None:
        """Collector role: the vote boundary — materialise and submit."""
        self.estats.submitted += 1
        self.sim.realm.note_fallback("vote-boundary")
        session = self._collect_session
        if session is None:
            raise NetworkError(f"{self.name}: no compare attachment configured")
        session.send(batch.packet_at(i), branch=branch, claim=claim)

    def _forward_external_batch(self, batch, i: int, now: float) -> None:
        """Egress role for one train packet (dup mode: no compare)."""
        ext = self._ext_cache
        if ext is None:
            ext = self._resolve_externals()
        ext_nos, ext_ports = ext
        out_port_no = self._mac_table.get(batch.template.fields()[0].dst)
        if out_port_no is not None and out_port_no in ext_nos:
            self.ports[out_port_no].send_batch_packet(batch, i, now)
            self.stats.forwarded += 1
            return
        self.estats.flooded += 1
        for port in ext_ports:
            port.send_batch_packet(batch, i, now)
        if ext_ports:
            self.stats.forwarded += 1

    def _from_external(self, packet: Packet, in_port_no: int) -> None:
        """Hub role: learn the source, duplicate to every branch."""
        self.estats.external_in += 1
        src = packet.fields()[0].src  # read-only access
        if not src.is_multicast:
            self._mac_table[src] = in_port_no
        if self.mode == MODE_COMBINE:
            # Warm the wire-image cache before fanning out: the k CoW
            # copies share it, so the egress compare vote-keys every
            # benign copy without serialising again (a stamped CBR
            # datagram arrives with its image: nothing to do).  Pointless
            # in dup mode (no compare).
            packet.to_bytes()
        fan = self._fan_cache
        if fan is None:
            fan = self._resolve_fan()
        estats = self.estats
        for session in fan:
            # a private object per branch: see transport/base.py
            session.send(packet.copy())
            estats.duplicated += 1
        if packet.trace_id is not None:
            self.trace("endpoint.dup", trace=packet.trace_id, fanout=len(fan))

    def _from_branch(
        self, packet: Packet, branch: int, claim: Optional[int] = None
    ) -> None:
        """Collector role: hand the copy to the compare."""
        self.estats.collected += 1
        if self.mode == MODE_DUP:
            # Dup3/Dup5: hubs only; duplicates flow through unfiltered.
            self._forward_external(packet)
            return
        self._submit_to_compare(packet, branch, claim)

    def _submit_to_compare(
        self, packet: Packet, branch: int, claim: Optional[int] = None
    ) -> None:
        self.estats.submitted += 1
        session = self._collect_session
        if session is None:
            raise NetworkError(f"{self.name}: no compare attachment configured")
        session.send(packet, branch=branch, claim=claim)

    def handle_release(self, packet: Packet) -> None:
        """Egress role: the compare released this packet; forward it on."""
        self.estats.released_out += 1
        claim = (packet.meta or {}).get("claim")
        if claim is not None:
            ext = self._ext_cache
            if ext is None:
                ext = self._resolve_externals()
            if claim in ext[0]:
                self.ports[claim].send(packet.copy())
                self.stats.forwarded += 1
                return
        self._forward_external(packet)

    def _forward_external(self, packet: Packet) -> None:
        ext = self._ext_cache
        if ext is None:
            ext = self._resolve_externals()
        ext_nos, ext_ports = ext
        out_port_no = self._mac_table.get(packet.fields()[0].dst)
        if out_port_no is not None and out_port_no in ext_nos:
            self.ports[out_port_no].send(packet.copy())
            self.stats.forwarded += 1
            return
        # Unknown destination: flood the external side only — never back
        # into the untrusted bundle or at the compare.
        self.estats.flooded += 1
        for port in ext_ports:
            port.send(packet.copy())
        if ext_ports:
            self.stats.forwarded += 1

    # ------------------------------------------------------------------
    # control-plane release path (POX3)
    # ------------------------------------------------------------------
    def handle_controller_message(self, message) -> None:
        """The compare app sends packet-outs only: each is a release."""
        self.stats.packet_outs += 1
        if message.packet is not None:
            self.handle_release(message.packet)
