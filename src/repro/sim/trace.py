"""Event tracing / telemetry bus.

The case study in Section VI of the paper verifies routing behaviour with
``tcpdump`` taps on every interface adjacent to the benign path plus flow
table counters.  :class:`TraceBus` is the simulator-native equivalent: any
component can ``emit`` a typed record, and observers (tests, the case-study
screening harness, the packet-lifecycle tracer, debugging tools) subscribe
by topic.  Like a ``tcpdump`` tap, it keeps records only where someone is
looking: a bus retains nothing until :meth:`TraceBus.start_retaining` is
called, and a record nobody subscribed to and nobody keeps is never built.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional


class TraceRecord(NamedTuple):
    """One telemetry record (immutable; a retaining run keeps one per
    emit, so it carries no per-instance ``__dict__``)."""

    time: float
    topic: str
    source: str
    data: Dict[str, Any]


Listener = Callable[[TraceRecord], None]

# `TraceBus.emit` builds its record with the tuple constructor directly:
# the generated `TraceRecord.__new__` is one more Python frame per emit.
_new_record = tuple.__new__


class TraceBus:
    """Publish/subscribe bus for simulation telemetry.

    Topics are plain strings (``"link.drop"``, ``"compare.release"``,
    ``"alarm"`` ...).  Subscriptions come in three shapes:

    * an exact topic (``"link.drop"``);
    * a topic-prefix pattern ending in ``*`` (``"link.*"`` receives
      ``link.drop``, ``link.tx`` ...; ``"link*"`` works the same way —
      everything before the ``*`` is the prefix);
    * ``""`` (receives everything).

    A record is delivered at most once per subscribed listener entry, in
    registration-shape order: exact listeners first, then prefix
    listeners, then catch-all listeners.

    **Retention is opt-in.**  A bus built with ``retain=False`` (the
    default) keeps nothing, and when no listener matches a topic
    ``emit`` returns before it builds a record.  :meth:`start_retaining`
    turns retention on for a bus that already exists (nodes hold their
    network's bus from construction); from then on records are kept in
    memory (bounded) for post-run reads, with a per-topic index so
    :meth:`select`/:meth:`count` on an exact topic do not scan the full
    retained list.

    **Saturation contract.**  When retention saturates (``max_records``
    reached), further records are still *delivered* to listeners but no
    longer retained.  Exactly once, a ``trace.saturation`` warning record
    is appended to the retained log (so the log is at most
    ``max_records + 1`` long) and dispatched to listeners, and
    :attr:`dropped_count` counts every record lost to truncation.  Note
    the deliberate ordering asymmetry, which tests rely on:

    * **listeners** observe every record in emit order, with the warning
      injected immediately *before* the first dropped record (the
      warning announces the drop that is about to be delivered);
    * **retention** ends with the warning as its final entry — the first
      dropped record itself is *not* retained (that is what "dropped"
      means), so the retained log and the listener stream intentionally
      diverge from the first drop onward.

    ``clear()`` resets retention, the topic index, ``dropped_count`` and
    re-arms the one-time warning.
    """

    #: topic of the one-time retention-saturation warning record
    SATURATION_TOPIC = "trace.saturation"

    def __init__(self, retain: bool = False, max_records: int = 1_000_000) -> None:
        self._listeners: Dict[str, List[Listener]] = {}
        self._prefix_listeners: Dict[str, List[Listener]] = {}
        self._retain = retain
        self._max_records = max_records
        self._saturation_warned = False
        self.dropped_count = 0
        self.records: List[TraceRecord] = []
        self._by_topic: Dict[str, List[TraceRecord]] = {}

    def start_retaining(self) -> None:
        """Keep every record emitted from now on (earlier ones are gone)."""
        self._retain = True

    def subscribe(self, topic: str, listener: Listener) -> None:
        """Subscribe to an exact topic, a ``prefix*`` pattern, or ``""``."""
        if topic.endswith("*"):
            self._prefix_listeners.setdefault(topic[:-1], []).append(listener)
        else:
            self._listeners.setdefault(topic, []).append(listener)

    def unsubscribe(self, topic: str, listener: Listener) -> None:
        table = self._prefix_listeners if topic.endswith("*") else self._listeners
        key = topic[:-1] if topic.endswith("*") else topic
        listeners = table.get(key, [])
        if listener in listeners:
            listeners.remove(listener)
            if not listeners and table is self._listeners:
                # `emit` asks `topic in listeners`; the prefix table stays
                # as it is, since `_dispatch` may be iterating it
                del table[key]

    def _prefix_match(self, topic: str) -> bool:
        """Whether some prefix listener takes ``topic``."""
        return any(
            topic.startswith(prefix) and prefix_listeners
            for prefix, prefix_listeners in self._prefix_listeners.items()
        )

    def emit(
        self,
        time: float,
        topic: str,
        source: str,
        **data: Any,
    ) -> None:
        if not self._retain:
            # Nobody keeps it: build the record only for a listener of it.
            listeners = self._listeners
            if (
                topic in listeners
                or "" in listeners
                or (self._prefix_listeners and self._prefix_match(topic))
            ):
                self._dispatch(_new_record(TraceRecord, (time, topic, source, data)))
            return
        record = _new_record(TraceRecord, (time, topic, source, data))
        records = self.records
        if len(records) < self._max_records:
            records.append(record)
            bucket = self._by_topic.get(topic)
            if bucket is None:
                bucket = self._by_topic[topic] = []
            bucket.append(record)
        else:
            self.dropped_count += 1
            if not self._saturation_warned:
                self._saturation_warned = True
                warning = TraceRecord(
                    time=time,
                    topic=self.SATURATION_TOPIC,
                    source="TraceBus",
                    data={
                        "max_records": self._max_records,
                        "first_dropped_topic": topic,
                    },
                )
                records.append(warning)
                self._by_topic.setdefault(warning.topic, []).append(warning)
                self._dispatch(warning)
        # Most topics have no listener: skip the dispatch frame for them.
        listeners = self._listeners
        if topic in listeners or self._prefix_listeners or "" in listeners:
            self._dispatch(record)

    def _dispatch(self, record: TraceRecord) -> None:
        topic = record.topic
        for listener in self._listeners.get(topic, ()):
            listener(record)
        if self._prefix_listeners:
            for prefix, listeners in self._prefix_listeners.items():
                if topic.startswith(prefix):
                    for listener in listeners:
                        listener(record)
        for listener in self._listeners.get("", ()):
            listener(record)

    # ------------------------------------------------------------------
    # query helpers (used heavily by tests and the case-study screening)
    # ------------------------------------------------------------------
    def topics(self) -> List[str]:
        """Topics present in the retained log, sorted."""
        return sorted(self._by_topic)

    def select(
        self,
        topic: Optional[str] = None,
        source: Optional[str] = None,
    ) -> List[TraceRecord]:
        """Return retained records filtered by topic and/or source.

        ``topic`` may be exact (served from the per-topic index) or a
        ``prefix*`` pattern (scans the retained list to preserve global
        emission order across the matching topics).
        """
        if topic is None:
            out: List[TraceRecord] = self.records
        elif topic.endswith("*"):
            prefix = topic[:-1]
            out = [r for r in self.records if r.topic.startswith(prefix)]
        else:
            out = self._by_topic.get(topic, [])
        if source is not None:
            return [r for r in out if r.source == source]
        return list(out)

    def count(self, topic: Optional[str] = None, source: Optional[str] = None) -> int:
        if source is None and topic is not None and not topic.endswith("*"):
            return len(self._by_topic.get(topic, ()))
        return len(self.select(topic=topic, source=source))

    def clear(self) -> None:
        self.records.clear()
        self._by_topic.clear()
        self.dropped_count = 0
        self._saturation_warned = False
