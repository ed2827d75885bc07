"""Unified metrics model: pushed counters and histograms, pulled samples.

The paper's evaluation is built entirely from measured rates, latencies
and loss counts; this module gives every subsystem one vocabulary for
those numbers.  Design constraints, in order:

1. **near-zero cost when disabled** — counts are plain slotted ints in a
   :class:`StatBlock` that the hot path bumps whether or not anyone is
   watching; an enabled registry *reads* them at snapshot time.  The few
   instruments that must be pushed (histograms, counters labelled at
   event time) bind ``None`` under a disabled registry and cost one
   ``is not None`` test per packet;
2. **deterministic snapshots** — all sample values derive from simulated
   time and seeded RNG streams, so two runs of the same experiment
   produce byte-identical flattened samples (the property the
   ``repro obs diff`` CI gate relies on);
3. **no dependencies** — rendering is Prometheus *text format* compatible
   but nothing here imports outside the standard library.

Naming scheme (see DESIGN.md "Observability"): ``<subsystem>_<what>_<unit>``
with ``_total`` for monotone counters, e.g. ``link_tx_packets_total``,
``compare_release_latency_seconds``.  Identity lives in labels
(``{link="s1-r0", scenario="central3"}``), never in the metric name.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "StatBlock",
    "MetricsRegistry",
    "active_registry",
    "set_active_registry",
    "use_registry",
    "bind_counter",
    "bind_histogram",
    "DEFAULT_LATENCY_BUCKETS",
]

#: default histogram buckets, in seconds — the testbed operates at
#: microsecond granularity (per-packet costs of 4–42 us, RTTs of ~200 us)
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 5e-2,
)


class MetricsError(Exception):
    """Raised on inconsistent metric registration or label use."""


def _label_key(labelnames: Sequence[str], values: Tuple[str, ...]) -> str:
    """Stable flat sample key suffix: ``{a="x",b="y"}`` (sorted by name)."""
    if not labelnames:
        return ""
    pairs = sorted(zip(labelnames, values))
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters cannot decrease")
        self.value += amount

    def sample(self) -> float:
        return self.value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.counts: List[int] = [0] * (len(self.buckets) + 1)  # +inf tail
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def sample(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": round(self.sum, 12),
            "buckets": {
                ("+Inf" if i == len(self.buckets) else repr(self.buckets[i])): n
                for i, n in enumerate(self.counts)
                if n
            },
        }


class StatBlock:
    """One component's counts: zero-initialised slotted fields.

    The hot path bumps them as plain attributes (``stats.x += 1``)
    whether or not anyone is watching; :meth:`publish` lets the registry
    active at construction read them at snapshot time.  A subclass
    declares ``__slots__`` — and ``FLOAT_FIELDS`` for an accumulated
    duration — and nothing else, so adding a counter is one word and it
    cannot be missing from ``as_dict()``, a record or ``/metrics``.
    """

    __slots__ = ()
    #: fields that start as ``0.0`` rather than ``0``
    FLOAT_FIELDS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0.0 if name in self.FLOAT_FIELDS else 0)

    def as_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def publish(self, family: str, **labels: object) -> "StatBlock":
        """Expose every field as ``<family>_<field>_total{labels}``."""
        StatBlock.publish_samples(
            lambda: {
                f"{family}_{field}_total": value
                for field, value in self.as_dict().items()
            },
            **labels,
        )
        return self

    @staticmethod
    def publish_samples(
        read: Callable[[], Dict[str, float]], **labels: object
    ) -> None:
        """Publish counts kept outside a block: ``read()`` returns full
        sample names (see :meth:`MetricsRegistry.add_source`, which
        keeps nothing when the active registry is disabled)."""
        _active.add_source(read, labels)


class _Family:
    """One registered metric name; children are per-label-set instruments."""

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        factory: Callable[[], Any],
        kind: str,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.kind = kind
        self._factory = factory
        self._children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, *values: object, **kv: object) -> Any:
        if kv:
            if values:
                raise MetricsError("pass labels positionally or by name, not both")
            try:
                values = tuple(str(kv[name]) for name in self.labelnames)
            except KeyError as exc:
                raise MetricsError(f"{self.name}: missing label {exc}") from None
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise MetricsError(
                f"{self.name}: expected labels {self.labelnames}, got {values}"
            )
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._factory()
        return child

    def items(self) -> Iterable[Tuple[str, Any]]:
        for values in sorted(self._children):
            yield _label_key(self.labelnames, values), self._children[values]


class MetricsRegistry:
    """Registry of metric families and pull sources.

    Pushed instruments (:meth:`counter`, :meth:`histogram`) hold their
    own value; a pull source (:meth:`add_source`) is a callable read at
    snapshot time, which is how every :class:`StatBlock` and every
    gauge reaches a snapshot.  ``enabled=False`` keeps no source, and
    components reach it only through :func:`bind_counter` /
    :func:`bind_histogram`, which then return ``None``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: Dict[str, _Family] = {}
        self._sources: List[Tuple[Callable[[], Dict[str, float]], str]] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        factory: Callable[[], Any],
        kind: str,
    ) -> Any:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != tuple(labelnames):
                raise MetricsError(
                    f"metric {name!r} re-registered with a different "
                    f"type/labels ({family.kind}{family.labelnames} vs "
                    f"{kind}{tuple(labelnames)})"
                )
            return family
        family = _Family(name, help, tuple(labelnames), factory, kind)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Any:
        return self._register(name, help, labelnames, Counter, "counter")

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Any:
        return self._register(
            name, help, labelnames, lambda: Histogram(buckets), "histogram"
        )

    def add_source(
        self, read: Callable[[], Dict[str, float]], labels: Dict[str, object]
    ) -> None:
        """Register ``read`` as a pull source.

        ``read()`` returns ``{sample name: value}`` and is called once
        per snapshot; every sample carries ``labels``.  A name ending in
        ``_total`` renders as a counter, anything else as a gauge.
        Sources that yield the same name and labels are summed, like
        components sharing one pushed child.
        """
        if self.enabled:
            key = _label_key(tuple(labels), tuple(map(str, labels.values())))
            self._sources.append((read, key))

    def _pulled(self) -> Dict[str, Dict[str, float]]:
        """Read every source once: ``name -> label key -> value``."""
        out: Dict[str, Dict[str, float]] = {}
        for read, key in self._sources:
            for name, value in read().items():
                per_key = out.setdefault(name, {})
                per_key[key] = per_key.get(key, 0.0) + value
        return out

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def samples(self, extra_labels: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
        """Flat ``{name{labels}: value}`` snapshot.

        Scalars map to floats; histograms map to a ``{count, sum,
        buckets}`` dict.  ``extra_labels`` are merged into every sample
        key (used to namespace per-scenario registries in a RunReport).
        """
        read = [
            (name, key, child.sample())
            for name in sorted(self._families)
            for key, child in self._families[name].items()
        ] + [
            (name, key, float(value))
            for name, per_key in self._pulled().items()
            for key, value in per_key.items()
        ]
        out: Dict[str, Any] = {}
        for name, key, value in read:
            if extra_labels:
                merged = dict(extra_labels)
                if key:
                    for part in key[1:-1].split(","):
                        k, _, v = part.partition("=")
                        merged[k] = v.strip('"')
                key = "{" + ",".join(
                    f'{k}="{v}"' for k, v in sorted(merged.items())
                ) + "}"
            out[name + key] = round(value, 9) if isinstance(value, float) else value
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the current state (pushed
        families first, then the pulled names)."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, child in family.items():
                if family.kind == "histogram":
                    cumulative = 0
                    for i, bound in enumerate(child.buckets + (float("inf"),)):
                        cumulative += child.counts[i]
                        le = "+Inf" if bound == float("inf") else repr(bound)
                        sep = "," if key else "{"
                        suffix = (key[:-1] + sep if key else "{") + f'le="{le}"' + "}"
                        lines.append(f"{name}_bucket{suffix} {cumulative}")
                    lines.append(f"{name}_sum{key} {child.sum:g}")
                    lines.append(f"{name}_count{key} {child.count}")
                else:
                    lines.append(f"{name}{key} {child.sample():g}")
        for name, per_key in sorted(self._pulled().items()):
            kind = "counter" if name.endswith("_total") else "gauge"
            lines.append(f"# TYPE {name} {kind}")
            for key, value in sorted(per_key.items()):
                lines.append(f"{name}{key} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


def bind_counter(
    name: str, help: str = "", labelnames: Sequence[str] = ()
) -> Optional[Any]:
    """Bind-at-construction helper for the counters that must be pushed.

    A count whose label is known when the component is built belongs in
    a :class:`StatBlock`, and a count kept elsewhere is read with
    :meth:`StatBlock.publish_samples`; this is for the rest — a label
    value that only exists at event time (``{kind}``, ``{reason}``).
    Returns the counter family from the *active* registry, or ``None``
    when metrics are disabled — callers keep the result and test ``is
    not None`` before ``labels(...).inc()``.
    """
    if not _active.enabled:
        return None
    return _active.counter(name, help, labelnames)


def bind_histogram(
    name: str,
    help: str = "",
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    **labels: object,
) -> Optional[Histogram]:
    """Sibling of :func:`bind_counter` for a component's histogram.

    A distribution cannot be rebuilt from end-of-run counts, so it is
    observed on the hot path.  Returns the child for ``labels`` (fixed
    at construction) or ``None`` when metrics are disabled.
    """
    if not _active.enabled:
        return None
    return _active.histogram(name, help, tuple(labels), buckets).labels(**labels)


# ----------------------------------------------------------------------
# process-wide active registry
# ----------------------------------------------------------------------
# Components publish their counters and bind their instruments from the
# registry active at *construction* time (transport sessions are built
# on first use), so set an enabled registry active before building the
# network you want observed and keep it active while it runs.  The
# default is a disabled registry: the tier-1 suite and benchmarks pay
# nothing.
_active = MetricsRegistry(enabled=False)
_active_lock = threading.Lock()


def active_registry() -> MetricsRegistry:
    """The registry new components publish to and bind instruments from."""
    return _active


def set_active_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the active registry; returns the previous one."""
    global _active
    with _active_lock:
        previous = _active
        _active = registry
    return previous


class use_registry:
    """Context manager: activate ``registry`` for the enclosed block."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_active_registry(self._registry)
        return self._registry

    def __exit__(self, *exc: object) -> None:
        assert self._previous is not None
        set_active_registry(self._previous)
