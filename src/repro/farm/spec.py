"""Work-item description for the experiment farm.

A :class:`RunSpec` names one independent simulation run: a registered
runner, JSON-serialisable keyword arguments, and a seed.  Its
:attr:`~RunSpec.key` is a stable content hash over that triple, used
for on-disk caching and for the order-independent merge — two specs
with the same runner, kwargs and seed always hash to the same key, in
any process, on any run.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional

#: runner name -> callable, filled by :func:`register_runner`
_REGISTRY: Dict[str, Callable[..., Any]] = {}

#: runner name -> its declared span, filled by :func:`register_runner`
_SPANS: Dict[str, Callable[..., float]] = {}

#: modules auto-imported on a registry miss (they register their
#: runners at import time); keeps spawn-started workers working.
_DEFAULT_TASK_MODULES = ("repro.analysis.tasks",)


def register_runner(
    name: str, span: Optional[Callable[..., float]] = None
) -> Callable[[Callable], Callable]:
    """Decorator registering a task function under a stable name.

    The name — not the function's identity — enters the content hash,
    so refactoring a task's module keeps its cache entries valid.
    ``span`` declares the simulated seconds one run covers: it is called
    with the runner's arguments (a spec's kwargs and seed, defaults
    applied) and only orders a pool batch, longest first
    (:func:`spec_span`); it never reaches a result or a key.
    """

    def decorator(fn: Callable) -> Callable:
        _REGISTRY[name] = fn
        if span is not None:
            _SPANS[name] = span
        return fn

    return decorator


def registered_runners() -> List[str]:
    return sorted(_REGISTRY)


def resolve_runner(name: str) -> Callable[..., Any]:
    """Look up a runner by registry name or ``module:attr`` path."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    for module in _DEFAULT_TASK_MODULES:
        importlib.import_module(module)
        if name in _REGISTRY:
            return _REGISTRY[name]
    if ":" in name:
        module, _, attr = name.partition(":")
        return getattr(importlib.import_module(module), attr)
    raise KeyError(
        f"unknown farm runner {name!r}; registered: {registered_runners()}"
    )


def spec_span(spec: RunSpec) -> Optional[float]:
    """The simulated seconds ``spec`` covers, from its runner's declared
    span; ``None`` when the runner declares none or the spec's kwargs do
    not fit it (the run itself then reports the error)."""
    span = _SPANS.get(spec.runner)
    if span is None:
        return None
    try:
        bound = inspect.signature(_REGISTRY[spec.runner]).bind(
            seed=spec.seed, **spec.kwargs
        )
        bound.apply_defaults()
        return span(**bound.arguments)
    except TypeError:
        return None


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run (runner, kwargs, seed)."""

    runner: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if "seed" in self.kwargs:
            raise ValueError("pass the seed via RunSpec.seed, not kwargs")
        try:
            # normalise through JSON so tuples/lists, int/float literals
            # etc. hash identically and reach the task the same way a
            # cache round-trip would deliver them
            normalised = json.loads(json.dumps(self.kwargs))
        except (TypeError, ValueError) as exc:
            raise TypeError(
                f"RunSpec kwargs must be JSON-serialisable: {exc}"
            ) from exc
        object.__setattr__(self, "kwargs", normalised)

    def canonical(self) -> str:
        """Canonical JSON form (sorted keys, no whitespace)."""
        return json.dumps(
            {"runner": self.runner, "seed": self.seed, "kwargs": self.kwargs},
            sort_keys=True,
            separators=(",", ":"),
        )

    @cached_property
    def key(self) -> str:
        """Stable content hash (sha256 hex) of the spec, computed once."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    @property
    def short_key(self) -> str:
        return self.key[:12]

    def execute(self) -> Any:
        """Resolve the runner and run it (in whatever process we are)."""
        return resolve_runner(self.runner)(seed=self.seed, **self.kwargs)
