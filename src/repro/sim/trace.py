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

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


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


class _Memo(dict):
    """A per-topic answer, worked out by ``compute`` on the first ask and
    forgotten (``clear``) whenever retention or a subscription changes."""

    __slots__ = ("_compute",)

    def __init__(self, compute: Callable[[str], Any]) -> None:
        super().__init__()
        self._compute = compute

    def __missing__(self, topic: str) -> Any:
        value = self[topic] = self._compute(topic)
        return value


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
    listeners, then catch-all listeners.  A topic's listeners are worked
    out once, as a tuple, and again after any subscription changes: a
    listener that subscribes or unsubscribes while a record is being
    delivered changes who gets the *next* record, never who gets this
    one.

    **Retention is opt-in.**  A bus built with ``retain=False`` (the
    default) keeps nothing, and when no listener matches a topic
    ``emit`` returns before it builds a record.  :meth:`start_retaining`
    turns retention on for a bus that already exists (nodes hold their
    network's bus from construction); from then on records are kept in
    memory (bounded) for post-run reads, with a per-topic index so
    :meth:`select`/:meth:`count` on an exact topic do not scan the full
    retained list.

    **Ask before you build.**  ``wants(topic)`` answers whether a record
    on ``topic`` would be kept or delivered right now: true while the
    bus retains, or when an exact, prefix or ``""`` listener takes the
    topic.  A record site on a per-packet, per-copy or per-decision path
    asks it before it builds the record's fields, so on a quiet bus that
    site costs one C-level dict lookup.  The answer follows every
    :meth:`subscribe`, :meth:`unsubscribe` and :meth:`start_retaining`.

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
        #: topic -> the listeners that take it, in delivery order
        self._routes = _Memo(self._route)
        #: topic -> would a record on it be kept or delivered
        self._gate = _Memo(self._answer)
        self.wants: Callable[[str], bool] = self._gate.__getitem__

    def start_retaining(self) -> None:
        """Keep every record emitted from now on (earlier ones are gone)."""
        self._retain = True
        self._gate.clear()

    def subscribe(self, topic: str, listener: Listener) -> None:
        """Subscribe to an exact topic, a ``prefix*`` pattern, or ``""``."""
        if topic.endswith("*"):
            self._prefix_listeners.setdefault(topic[:-1], []).append(listener)
        else:
            self._listeners.setdefault(topic, []).append(listener)
        self._routes.clear()
        self._gate.clear()

    def unsubscribe(self, topic: str, listener: Listener) -> None:
        table = self._prefix_listeners if topic.endswith("*") else self._listeners
        key = topic[:-1] if topic.endswith("*") else topic
        listeners = table.get(key, [])
        if listener in listeners:
            listeners.remove(listener)
            if not listeners:
                del table[key]
            self._routes.clear()
            self._gate.clear()

    def _route(self, topic: str) -> Tuple[Listener, ...]:
        """The listeners that take ``topic``: exact, prefix, catch-all."""
        listeners = self._listeners
        return (
            *listeners.get(topic, ()),
            *(
                listener
                for prefix, prefix_listeners in self._prefix_listeners.items()
                if topic.startswith(prefix)
                for listener in prefix_listeners
            ),
            *listeners.get("", ()),
        )

    def _answer(self, topic: str) -> bool:
        """Whether a record on ``topic`` would be kept or delivered."""
        return self._retain or bool(self._routes[topic])

    def emit(
        self,
        time: float,
        topic: str,
        source: str,
        **data: Any,
    ) -> None:
        listeners = self._routes[topic]
        if not self._retain:
            # Nobody keeps it: build the record only for a listener of it.
            if listeners:
                record = _new_record(TraceRecord, (time, topic, source, data))
                for listener in listeners:
                    listener(record)
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
                for listener in self._routes[warning.topic]:
                    listener(warning)
        for listener in listeners:
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
