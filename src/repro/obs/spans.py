"""Packet-lifecycle spans: follow one packet through hub -> branches -> compare.

The paper's case study reconstructs where packets went with tcpdump taps
on every interface; *Software-Defined Adversarial Trajectory Sampling*
and *SDNsec* argue that per-packet trajectory evidence is the natural
observability substrate for this threat model.  :class:`PacketTracer`
is that substrate for the simulator:

* packets are **marked at injection** (``Host.send``) with a process-unique
  trace id, subject to a sampling rate drawn from a named seeded RNG
  stream so runs stay reproducible;
* every instrumented component emits per-hop records *only for marked
  packets* (``span.hop`` / ``span.send`` at ports, ``link.tx`` at
  transmitters, ``endpoint.dup`` at hubs, ``compare.vote`` at the compare;
  drop topics carry the packet and are picked up too), so the cost of an
  unmarked packet is a single attribute test per hop;
* the tracer subscribes to the relevant topic prefixes on the network's
  :class:`~repro.sim.trace.TraceBus` and indexes the records by trace
  id, so a full trajectory is one dictionary lookup instead of a scan
  of the retained log.

Trace ids ride on :attr:`Packet.trace_id`, which — unlike ``meta`` —
**survives** :meth:`Packet.copy`: a hub fan-out produces k copies that
all belong to the injected packet's trajectory, which is exactly what
makes duplicate-at-hub / vote-at-compare events attributable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.trace import TraceBus, TraceRecord

#: topic prefixes that can carry span-relevant records; ``ctrl.*``
#: stitches control-plane voting onto a packet's trajectory (the voter
#: stamps ``trace=`` on vote/release/blocked records when the causing
#: packet was marked)
SPAN_TOPIC_PATTERNS = (
    "span.*",
    "link.*",
    "endpoint.*",
    "switch.*",
    "compare.*",
    "port.*",
    "host.*",
    "ctrl.*",
)


class PacketTracer:
    """Samples packets at injection and indexes their per-hop records."""

    def __init__(
        self,
        bus: TraceBus,
        sample_rate: float = 1.0,
        rng=None,
        max_traces: int = 100_000,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate out of range: {sample_rate}")
        self.bus = bus
        self.sample_rate = sample_rate
        self._rng = rng
        self._max_traces = max_traces
        self._next_id = 1
        self._spans: Dict[int, List[TraceRecord]] = {}
        self._networks: list = []
        #: injection decisions
        self.marked = 0
        self.sampled_out = 0
        #: span records indexed (drops once max_traces trajectories exist)
        self.events = 0
        self.overflow_events = 0
        for pattern in SPAN_TOPIC_PATTERNS:
            bus.subscribe(pattern, self._on_record)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, network) -> None:
        """Install this tracer on a network: hosts mark packets on send."""
        if self._rng is None:
            self._rng = network.rng.stream("obs.tracer")
        network.tracer = self
        for node in network.nodes.values():
            if hasattr(node, "tracer"):
                node.tracer = self
        self._networks.append(network)

    def detach(self) -> None:
        """Stop marking and stop indexing (existing spans are kept)."""
        for network in self._networks:
            if getattr(network, "tracer", None) is self:
                network.tracer = None
            for node in network.nodes.values():
                if getattr(node, "tracer", None) is self:
                    node.tracer = None
        self._networks.clear()
        for pattern in SPAN_TOPIC_PATTERNS:
            self.bus.unsubscribe(pattern, self._on_record)

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def mark(self, packet, now: float = 0.0, source: str = "") -> Optional[int]:
        """Assign a trace id to ``packet`` subject to the sampling rate.

        Returns the id, or ``None`` when the packet was sampled out.
        """
        if self.sample_rate < 1.0:
            if self._rng is None or self._rng.random() >= self.sample_rate:
                self.sampled_out += 1
                return None
        trace_id = self._next_id
        self._next_id += 1
        packet.trace_id = trace_id
        self.marked += 1
        self.bus.emit(now, "span.inject", source, trace=trace_id)
        return trace_id

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _on_record(self, record: TraceRecord) -> None:
        trace_id = record.data.get("trace")
        if trace_id is None:
            packet = record.data.get("packet")
            if packet is None:
                return
            trace_id = getattr(packet, "trace_id", None)
            if trace_id is None:
                return
        spans = self._spans.get(trace_id)
        if spans is None:
            if len(self._spans) >= self._max_traces:
                self.overflow_events += 1
                return
            spans = self._spans[trace_id] = []
        spans.append(record)
        self.events += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def trace_ids(self) -> List[int]:
        return sorted(self._spans)

    def trajectory(self, trace_id: int) -> List[TraceRecord]:
        """All records of one packet's lifetime, in emission order."""
        return list(self._spans.get(trace_id, ()))

    def trajectories(self) -> Dict[int, List[TraceRecord]]:
        return {tid: list(spans) for tid, spans in self._spans.items()}

    def hop_sources(self, trace_id: int, topic: str = "span.hop") -> List[str]:
        """Node names that saw this packet (delivery events), in order."""
        return [r.source for r in self._spans.get(trace_id, ()) if r.topic == topic]

    def drops(self, trace_id: Optional[int] = None) -> List[TraceRecord]:
        """Drop records (topic ending in ``.drop`` or ``_drop``) for one
        trajectory, or across all trajectories."""
        ids = [trace_id] if trace_id is not None else self.trace_ids()
        out: List[TraceRecord] = []
        for tid in ids:
            out.extend(
                r
                for r in self._spans.get(tid, ())
                if r.topic.endswith(".drop") or r.topic.endswith("_drop")
            )
        return out

    def stats(self) -> Dict[str, Any]:
        return {
            "sample_rate": self.sample_rate,
            "marked": self.marked,
            "sampled_out": self.sampled_out,
            "traces": len(self._spans),
            "events": self.events,
            "overflow_events": self.overflow_events,
        }

    def clear(self) -> None:
        self._spans.clear()
        self.marked = 0
        self.sampled_out = 0
        self.events = 0
        self.overflow_events = 0


# ----------------------------------------------------------------------
# cross-layer correlation
# ----------------------------------------------------------------------
#: how a span topic maps to a story layer
_LAYER_PREFIXES = (
    ("ctrl.", "control"),
    ("compare.", "voter"),
    ("chaos.", "fault"),
)


def _layer_of(topic: str) -> str:
    for prefix, layer in _LAYER_PREFIXES:
        if topic.startswith(prefix):
            return layer
    return "data"


def cross_layer_story(
    spans: List[TraceRecord],
    chaos_records: Optional[List[TraceRecord]] = None,
    window_slack: float = 0.0,
) -> List[Dict[str, Any]]:
    """One packet's full story across data plane, voter and fault windows.

    ``spans`` is a trajectory from :meth:`PacketTracer.trajectory` —
    which, with the ``ctrl.*`` pattern subscribed, already interleaves
    data-plane hops, compare votes and control-plane voting.  Chaos
    records (topic ``chaos.*``) carry no trace id — faults hit targets,
    not packets — so they are correlated *by time*: any fault whose
    window (``[time, until/restart_at]``, falling back to its instant)
    overlaps the packet's lifetime is woven into the story as a
    ``fault`` layer entry.  Returns time-ordered dicts with ``time``,
    ``layer`` (data / voter / control / fault), ``topic``, ``source``
    and the record's own data (packet objects reduced to their summary).
    """
    story: List[Dict[str, Any]] = []
    for record in spans:
        data = {}
        for key, value in record.data.items():
            if key == "packet":
                summary = getattr(value, "summary", None)
                data[key] = summary() if callable(summary) else repr(value)
            else:
                data[key] = value
        story.append({
            "time": record.time,
            "layer": _layer_of(record.topic),
            "topic": record.topic,
            "source": record.source,
            "data": data,
        })
    if chaos_records and spans:
        t_lo = min(r.time for r in spans) - window_slack
        t_hi = max(r.time for r in spans) + window_slack
        for record in chaos_records:
            if not record.topic.startswith("chaos."):
                continue
            start = record.time
            end = record.data.get("until") or record.data.get("restart_at")
            end = float(end) if end is not None else start
            if end < t_lo or start > t_hi:
                continue
            story.append({
                "time": record.time,
                "layer": "fault",
                "topic": record.topic,
                "source": record.source,
                "data": dict(record.data),
            })
    story.sort(key=lambda entry: entry["time"])
    return story
