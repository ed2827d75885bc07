"""OpenFlow 1.0 switch datapath.

The switch models a *software* switch (the paper runs Open vSwitch-style
datapaths inside Mininet): each packet pays a per-packet processing cost
(``proc_time``) in the single-server FIFO of :class:`~repro.net.node.Datapath`
before the match-action pipeline runs.  This service time, not the raw link rate, is what bounds throughput
in the paper's testbed — and what makes duplication (Dup5/Central5)
visibly more expensive than Linespeed.

Adversarial routers are ordinary switches with a ``behavior`` attached:
per the threat model, a compromised router may ignore its installed rules
entirely, so the behavior hook runs *instead of* the normal pipeline and
can forward, mirror, rewrite, drop or fabricate packets arbitrarily.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.net.node import Datapath, Port
from repro.net.packet import Packet
from repro.openflow.actions import (
    Action,
    Output,
    PORT_CONTROLLER,
    PORT_FLOOD,
    PORT_IN_PORT,
)
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match
from repro.openflow.messages import (
    FLOWMOD_ADD,
    FLOWMOD_DELETE,
    FLOWMOD_DELETE_STRICT,
    FlowMod,
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    PACKETIN_ACTION,
    PACKETIN_NO_MATCH,
    PacketIn,
    PacketOut,
    PortStats,
    PortStatsReply,
    PortStatsRequest,
)
from repro.obs.metrics import StatBlock
from repro.sim.engine import CpuResource, Simulator
from repro.sim.trace import TraceBus
from repro.transport.base import ROLE_EGRESS, SessionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.behaviors import AdversarialBehavior

#: train-memo marker: the resolved Output port exists but is not wired
_BAD_EGRESS = object()


class OpenFlowSwitch(Datapath):
    """An OpenFlow 1.0 switch with a bounded processing pipeline."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace_bus: Optional[TraceBus] = None,
        proc_time: float = 0.0,
        proc_per_byte: float = 0.0,
        cpu: Optional[CpuResource] = None,
        service_queue_capacity: int = 1000,
        packet_buffer_capacity: int = 256,
        datapath_id: Optional[int] = None,
    ) -> None:
        super().__init__(
            sim,
            name,
            trace_bus,
            proc_time=proc_time,
            proc_per_byte=proc_per_byte,
            cpu=cpu,
            service_queue_capacity=service_queue_capacity,
            datapath_id=datapath_id,
        )
        self._egress_sessions: Dict[int, object] = {}
        self.table = FlowTable()
        StatBlock.publish_samples(self._table_samples, switch=name)
        self.behavior: Optional["AdversarialBehavior"] = None
        self._saved_flows: Optional[List[FlowEntry]] = None
        self._packet_buffer: Dict[int, Tuple[Packet, int]] = {}
        self._packet_buffer_capacity = packet_buffer_capacity
        self._buffer_seq = 0
        # One-entry flow-lookup memo for trains: (table, epoch, batch,
        # in_port_no, entry, d_lookups, d_index, d_scan, d_misses).
        self._bmemo: Optional[tuple] = None

    # ------------------------------------------------------------------
    # control channel
    # ------------------------------------------------------------------
    def handle_controller_message(self, message: object) -> None:
        """Entry point for messages arriving from the controller."""
        # by exact type, the common release first (the voter, too, only
        # canonicalises these exact types)
        kind = type(message)
        if kind is PacketOut:
            self._apply_packet_out(message)
        elif kind is FlowMod:
            self._apply_flow_mod(message)
        elif kind is PortStatsRequest:
            self._send_to_controller(self._port_stats_reply())
        elif kind is FlowStatsRequest:
            self._send_to_controller(self._flow_stats_reply())
        else:
            self.trace("switch.unknown_message", message=kind.__name__)

    # ------------------------------------------------------------------
    # packet-train fast path (batch realm)
    # ------------------------------------------------------------------
    def _serve_batch_packet(self, batch, i: int, in_port_no: int, now: float) -> None:
        """:meth:`_process` for one train packet, with a train-granular
        flow-table probe: the first packet of a train does the real
        lookup *and* resolves the egress port; its siblings replay the
        memoised entry, counter deltas and resolved egress (exact —
        match fields never cover the per-packet deltas, wiring is
        static, and the memo is invalidated by any table mutation or
        timeout)."""
        if self._failed:
            self.stats.dropped_failed += 1
            if self.tracing("switch.drop"):
                self.trace("switch.drop", reason="failed", packet=batch.packet_at(i))
            return
        table = self.table
        if self.behavior is not None or table.has_timeouts:
            # adversarial/behavior hook or timeout-bearing entries:
            # per-packet semantics, handled by the legacy pipeline
            self.sim.realm.note_fallback("fault-window")
            self._process(batch.packet_at(i), in_port_no)
            return
        memo = self._bmemo
        if (
            memo is not None
            and memo[0] is table
            and memo[1] == table.epoch
            and memo[2] is batch
            and memo[3] == in_port_no
        ):
            entry = memo[4]
            table.lookups += memo[5]
            table.index_hits += memo[6]
            table.scan_steps += memo[7]
            table.misses += memo[8]
            if entry is not None:
                entry.packet_count += 1
                entry.byte_count += batch.wire_len
                entry.last_matched = now
                fast = memo[9]
                if fast is not None:
                    # an unwired egress is a drop, not a forward, exactly
                    # as in the per-packet pipeline
                    if fast is _BAD_EGRESS:
                        self.stats.dropped_bad_port += 1
                        if self.tracing("switch.drop"):
                            self.trace("switch.drop", reason="bad_port",
                                       port=memo[10], packet=batch.packet_at(i))
                    else:
                        self.stats.forwarded += 1
                        fast.send_batch_packet(batch, i, now)
                    return
        else:
            l0, x0 = table.lookups, table.index_hits
            s0, m0 = table.scan_steps, table.misses
            entry = table.lookup(batch.template, in_port_no, now)
            fast = None
            out_no = -1
            if entry is not None:
                actions = entry.actions
                if len(actions) == 1 and type(actions[0]) is Output:
                    out_no = actions[0].port
                    if out_no == PORT_IN_PORT:
                        out_no = in_port_no
                    if out_no != PORT_FLOOD and out_no != PORT_CONTROLLER:
                        port = self.ports.get(out_no)
                        fast = (
                            port if port is not None and port.is_wired
                            else _BAD_EGRESS
                        )
            self._bmemo = (
                table,
                table.epoch,
                batch,
                in_port_no,
                entry,
                table.lookups - l0,
                table.index_hits - x0,
                table.scan_steps - s0,
                table.misses - m0,
                fast,
                out_no,
            )
            if fast is not None:
                if fast is _BAD_EGRESS:
                    self.stats.dropped_bad_port += 1
                    if self.tracing("switch.drop"):
                        self.trace("switch.drop", reason="bad_port", port=out_no,
                                   packet=batch.packet_at(i))
                else:
                    self.stats.forwarded += 1
                    fast.send_batch_packet(batch, i, now)
                return
        if entry is None:
            self.stats.dropped_no_match += 1
            self._table_miss(batch.packet_at(i), in_port_no)
            return
        actions = entry.actions
        if not actions:
            self.stats.dropped_no_actions += 1
            if self.tracing("switch.drop"):
                self.trace(
                    "switch.drop", reason="empty_actions", packet=batch.packet_at(i)
                )
            return
        # flood / controller output or a mutating action list: materialise
        self.sim.realm.note_fallback("mixed-headers")
        self.apply_actions(batch.packet_at(i), actions, in_port_no)

    def _process(self, packet: Packet, in_port_no: int) -> None:
        if self._failed:
            # crashed while the packet was in the service queue
            self.stats.dropped_failed += 1
            if self.tracing("switch.drop"):
                self.trace("switch.drop", reason="failed", packet=packet)
            return
        now = self.sim.now
        table = self.table
        if table.has_timeouts:
            for entry in table.sweep_expired(now):
                self._notify_flow_removed(entry, reason=entry.expired(now) or "idle")
        if self.behavior is not None:
            handled = self.behavior.handle(self, packet, in_port_no)
            if handled:
                self.stats.behavior_handled += 1
                return
        entry = self.table.lookup(packet, in_port_no, now)
        if entry is None:
            self.stats.dropped_no_match += 1
            self._table_miss(packet, in_port_no)
            return
        if not entry.actions:
            self.stats.dropped_no_actions += 1
            if self.tracing("switch.drop"):
                self.trace("switch.drop", reason="empty_actions", packet=packet)
            return
        # the packet arrived over a link: nobody else holds it any more
        self.apply_actions(packet, entry.actions, in_port_no, owned=True)

    def _table_miss(self, packet: Packet, in_port_no: int) -> None:
        if self._controller is None:
            if self.tracing("switch.drop"):
                self.trace("switch.drop", reason="no_match", packet=packet)
            return
        buffer_id = self._buffer_packet(packet, in_port_no)
        self.stats.packet_ins += 1
        bus = self.trace_bus
        if bus is not None and bus.wants("switch.packet_in"):
            bus.emit(
                self.sim.now, "switch.packet_in", self.name,
                in_port=in_port_no, packet=packet,
            )
        self._send_to_controller(
            PacketIn(
                self.datapath_id, packet, in_port_no, PACKETIN_NO_MATCH, buffer_id
            )
        )

    def apply_actions(
        self,
        packet: Packet,
        actions: Sequence[Action],
        in_port_no: int,
        owned: bool = False,
    ) -> None:
        """Apply an OF 1.0 action list to the packet; ``packet`` itself is
        never changed.

        ``owned`` means the caller hands the packet over (the datapath's
        own :meth:`_process`): a list that writes nothing then emits that
        object on its final ``Output``.  Otherwise, and before the first
        write in any case, the actions work on a private copy.
        """
        working = packet if owned else packet.copy()
        last = len(actions) - 1
        emitted = False
        for index, action in enumerate(actions):
            if type(action) is Output:
                # Nothing touches the working packet after the final
                # action, so a final Output sends it as is; an earlier one
                # sends a copy.
                if self._output(working, action.port, in_port_no, index == last):
                    emitted = True
            else:
                if working is packet:
                    working = packet.copy()
                action.apply(working)
        if emitted:
            self.stats.forwarded += 1

    def _egress_session(self, port: Port):
        """The egress transport session for one local port (memoised)."""
        session = self._egress_sessions.get(port.port_no)
        if session is None:
            session = self.transport.session(
                SessionSpec(self.name, ROLE_EGRESS, port.port_no), port=port
            )
            self._egress_sessions[port.port_no] = session
        return session

    def _output(
        self, packet: Packet, out_port: int, in_port_no: int, owned: bool = False
    ) -> bool:
        """Emit ``packet`` on ``out_port``; ``owned`` means the caller is
        done with it, so a unicast output need not copy it again.  False
        when ``out_port`` has no link: the copy is counted and dropped."""
        if out_port == PORT_FLOOD:
            for port_no, port in sorted(self.ports.items()):
                if port_no != in_port_no and port.is_wired:
                    self._egress_session(port).send(packet.copy())
        elif out_port == PORT_CONTROLLER:
            self.stats.packet_ins += 1
            self._send_to_controller(
                PacketIn(
                    datapath_id=self.datapath_id,
                    packet=packet.copy(),
                    in_port=in_port_no,
                    reason=PACKETIN_ACTION,
                    buffer_id=self._buffer_packet(packet, in_port_no),
                )
            )
        else:
            if out_port == PORT_IN_PORT:
                out_port = in_port_no
            port = self.ports.get(out_port)
            if port is None or port.link is None:
                self.stats.dropped_bad_port += 1
                if self.tracing("switch.drop"):
                    self.trace(
                        "switch.drop", reason="bad_port", port=out_port, packet=packet
                    )
                return False
            session = self._egress_sessions.get(out_port)
            if session is None:
                session = self._egress_session(port)
            session.send(packet if owned else packet.copy())
        return True

    # ------------------------------------------------------------------
    # controller message handling
    # ------------------------------------------------------------------
    def _apply_flow_mod(self, mod: FlowMod) -> None:
        self.stats.flow_mods += 1
        if mod.command == FLOWMOD_ADD:
            self.table.add(
                FlowEntry(
                    match=mod.match,
                    actions=mod.actions,
                    priority=mod.priority,
                    cookie=mod.cookie,
                    idle_timeout=mod.idle_timeout,
                    hard_timeout=mod.hard_timeout,
                    created_at=self.sim.now,
                )
            )
        elif mod.command == FLOWMOD_DELETE:
            for entry in self.table.remove(match=mod.match, strict=False):
                self._notify_flow_removed(entry, reason="delete")
        elif mod.command == FLOWMOD_DELETE_STRICT:
            for entry in self.table.remove(
                match=mod.match, priority=mod.priority, strict=True
            ):
                self._notify_flow_removed(entry, reason="delete")
        else:
            self.trace("switch.bad_flow_mod", command=mod.command)

    def _apply_packet_out(self, message: PacketOut) -> None:
        self.stats.packet_outs += 1
        packet = message.packet
        if packet is None and message.buffer_id is not None:
            buffered = self._packet_buffer.pop(message.buffer_id, None)
            if buffered is None:
                self.trace("switch.bad_buffer", buffer_id=message.buffer_id)
                return
            packet = buffered[0]
        if packet is None:
            self.trace("switch.bad_packet_out")
            return
        self.apply_actions(packet, message.actions, message.in_port)

    def _notify_flow_removed(self, entry: FlowEntry, reason: str) -> None:
        self._send_to_controller(
            FlowRemoved(
                datapath_id=self.datapath_id,
                match=entry.match,
                priority=entry.priority,
                reason=reason,
                packet_count=entry.packet_count,
                byte_count=entry.byte_count,
                cookie=entry.cookie,
            )
        )

    # ------------------------------------------------------------------
    # local management API (used by trusted components & tests)
    # ------------------------------------------------------------------
    def install(
        self,
        match: Match,
        actions: List[Action],
        priority: int = 0,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
    ) -> FlowEntry:
        """Install a flow entry directly (no control channel round trip)."""
        entry = FlowEntry(
            match=match,
            actions=actions,
            priority=priority,
            cookie=cookie,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            created_at=self.sim.now,
        )
        self.table.add(entry)
        return entry

    @property
    def failed(self) -> bool:
        return self._failed

    def _table_samples(self) -> Dict[str, int]:
        """Flow-table counts for the registry, read through ``self``
        because :meth:`fail` replaces the table."""
        counts = self.table.lookup_stats()
        samples = {"flowtable_entries": counts.pop("entries")}
        for key, value in counts.items():
            samples[f"flowtable_{key}_total"] = value
        return samples

    def fail(self, wipe_flows: bool = True) -> None:
        """Crash the datapath: every packet is dropped until ``recover``.

        ``wipe_flows=True`` models the paper's soft-state loss — a rebooted
        router comes back with an empty flow table; the pre-crash table is
        snapshotted so ``recover(restore_flows=True)`` can model an
        operator re-provisioning the routes.
        """
        if self._failed:
            return
        self._failed = True
        if wipe_flows:
            self._saved_flows = self.table.entries
            self.table = FlowTable()
        self._packet_buffer.clear()
        self.trace("switch.failed", wiped_flows=wipe_flows)

    def recover(self, restore_flows: bool = True) -> None:
        """Bring a crashed datapath back up.

        ``restore_flows=True`` re-installs the pre-crash entries with
        fresh timestamps (an operator or controller re-provisioning the
        routes); ``False`` leaves the table as the crash left it.
        """
        if not self._failed:
            return
        self._failed = False
        restored = 0
        if restore_flows and self._saved_flows is not None:
            now = self.sim.now
            for entry in self._saved_flows:
                entry.created_at = now
                entry.last_matched = now
                self.table.add(entry)
            restored = len(self._saved_flows)
        self._saved_flows = None
        self.trace("switch.recovered", restored_flows=restored)

    # ------------------------------------------------------------------
    # stats & buffering
    # ------------------------------------------------------------------
    def _buffer_packet(self, packet: Packet, in_port_no: int) -> int:
        if len(self._packet_buffer) >= self._packet_buffer_capacity:
            # ids only grow and are inserted in that order: the oldest
            # (smallest) buffered id is the first key
            del self._packet_buffer[next(iter(self._packet_buffer))]
        self._buffer_seq += 1
        self._packet_buffer[self._buffer_seq] = (packet, in_port_no)
        return self._buffer_seq

    def _port_stats_reply(self) -> PortStatsReply:
        stats = [
            PortStats(
                port_no=port_no,
                rx_packets=port.rx_packets,
                tx_packets=port.tx_packets,
                rx_bytes=port.rx_bytes,
                tx_bytes=port.tx_bytes,
            )
            for port_no, port in sorted(self.ports.items())
        ]
        return PortStatsReply(datapath_id=self.datapath_id, stats=stats)

    def _flow_stats_reply(self) -> FlowStatsReply:
        stats = [
            FlowStatsEntry(
                match=e.match,
                priority=e.priority,
                packet_count=e.packet_count,
                byte_count=e.byte_count,
                cookie=e.cookie,
            )
            for e in self.table
        ]
        return FlowStatsReply(datapath_id=self.datapath_id, stats=stats)
