"""The scenario registry: one typed record per combiner realisation.

Every scenario ``build_testbed`` can build is registered here once — the
six Section V testbed variants, the Section VI shielded router, the
Section VII virtualized combiner and the Section IX coarse-grained and
sampled combiners — as a :class:`ScenarioSpec` carrying the builder
parameters (topology, replication factor, endpoint mode, compare
transport, branch depth, sample rate) *and* the presentation metadata
the rest of the stack needs (paper-figure ordering, Table I
membership).  Everything that used to be
a hand-maintained list — ``testbed.VARIANTS``, the figure and Table I
scenario orders (:func:`figure_scenarios` / :func:`table1_scenarios`),
CLI ``choices`` (:func:`compare_scenarios`) and validation messages,
experiment-plan validation — derives from this registry, so registering
a new scenario propagates it everywhere at once and nothing can
desynchronise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.endpoint import MODE_COMBINE, MODE_DUP

__all__ = [
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "figure_scenarios",
    "table1_scenarios",
    "compare_scenarios",
    "require_compare",
    "unknown_scenario_error",
]


#: the builders ``build_testbed`` dispatches on, and what each builds:
#: only the chain takes the mode, transport, depth and sampling knobs
TOPOLOGIES = {
    "chain": "Figure 3 combiner chain",  # §V and §IX
    "ladder": "virtual combiner",        # §VII: the Figure 9 tunnels
    "pod": "shielded router",            # §VI: the fat-tree pod slice
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Typed builder parameters + metadata for one testbed variant."""

    name: str
    k: int                 # replication factor (number of parallel routers)
    mode: str              # MODE_COMBINE (full NetCo) or MODE_DUP (split only)
    transport: str         # compare transport: "inline" or "controller"
    title: str = ""        # human-readable label
    #: column order in the paper's figures/Table I; None = not a §V column
    figure_order: Optional[int] = None
    in_table1: bool = True # does the paper's Table I include this scenario?
    depth: int = 1         # switches per branch (§IX coarse-grained: > 1)
    #: §IX sampled detection: fraction of packets compared out of band
    sample_rate: Optional[float] = None
    #: which builder: a key of :data:`TOPOLOGIES`
    topology: str = "chain"

    def validate(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.k < 1:
            raise ValueError(f"{self.name}: k must be >= 1, got {self.k}")
        if self.mode not in (MODE_COMBINE, MODE_DUP):
            raise ValueError(f"{self.name}: unknown endpoint mode {self.mode!r}")
        if self.transport not in ("inline", "controller"):
            raise ValueError(
                f"{self.name}: unknown compare transport {self.transport!r}"
            )
        if self.depth < 1:
            raise ValueError(f"{self.name}: depth must be >= 1, got {self.depth}")
        if self.sample_rate is not None and not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"{self.name}: sample rate out of range: {self.sample_rate}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"{self.name}: unknown topology {self.topology!r}; "
                f"pick from {tuple(TOPOLOGIES)}"
            )
        if self.topology != "chain" and (
            self.mode != MODE_COMBINE or self.transport != "inline"
            or self.depth != 1 or self.sample_rate is not None
        ):
            raise ValueError(
                f"{self.name}: a {TOPOLOGIES[self.topology]} is mode "
                f"'combine', transport 'inline', depth 1 and unsampled"
            )


#: name -> spec, in registration order (the order ``VARIANTS`` exposes)
_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Validate and register one scenario (idempotent re-registration of
    an identical spec is allowed; redefinition is not)."""
    spec.validate()
    existing = _SCENARIOS.get(spec.name)
    if existing is not None and existing != spec:
        raise ValueError(f"scenario {spec.name!r} already registered differently")
    _SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    spec = _SCENARIOS.get(name)
    if spec is None:
        raise ValueError(unknown_scenario_error(name))
    return spec


def unknown_scenario_error(name: str) -> str:
    """The one error message every layer shows for a bad scenario name."""
    return (
        f"unknown testbed variant {name!r}; pick from {scenario_names()}"
    )


def scenario_names() -> Tuple[str, ...]:
    """All registered scenario names, in registration order."""
    return tuple(_SCENARIOS)


def figure_scenarios() -> Tuple[str, ...]:
    """The Section V scenario names in the paper's figure/column order."""
    columns = [s for s in _SCENARIOS.values() if s.figure_order is not None]
    return tuple(s.name for s in sorted(columns, key=lambda s: s.figure_order))


def table1_scenarios() -> Tuple[str, ...]:
    """The Table I scenarios, in the paper's column order."""
    return tuple(n for n in figure_scenarios() if _SCENARIOS[n].in_table1)


def compare_scenarios() -> Tuple[str, ...]:
    """The scenarios with a compare element — what a supervised flow
    (``chaos.run``, ``adv.run``) can run on."""
    return tuple(s.name for s in _SCENARIOS.values() if s.mode == MODE_COMBINE)


def require_compare(names: Iterable[str]) -> None:
    """Reject, before anything runs, a scenario that cannot host a
    supervised flow (unknown names get the registry's usual message)."""
    for name in names:
        if get_scenario(name).mode != MODE_COMBINE:
            raise ValueError(
                f"variant {name!r} has no compare element; "
                f"pick from {compare_scenarios()}"
            )


# ----------------------------------------------------------------------
# the Section V-A scenarios (Figure 3 testbed variants)
# ----------------------------------------------------------------------
# Registration order is the historical ``VARIANTS`` tuple;
# ``figure_order`` is the paper's column order (``figure_scenarios()``).
register_scenario(ScenarioSpec(
    "linespeed", k=1, mode=MODE_DUP, transport="inline",
    title="Linespeed", figure_order=0,
))
register_scenario(ScenarioSpec(
    "central3", k=3, mode=MODE_COMBINE, transport="inline",
    title="Central3", figure_order=3,
))
register_scenario(ScenarioSpec(
    "central5", k=5, mode=MODE_COMBINE, transport="inline",
    title="Central5", figure_order=4,
))
register_scenario(ScenarioSpec(
    "pox3", k=3, mode=MODE_COMBINE, transport="controller",
    title="POX3", figure_order=5, in_table1=False,
))
register_scenario(ScenarioSpec(
    "dup3", k=3, mode=MODE_DUP, transport="inline",
    title="Dup3", figure_order=1,
))
register_scenario(ScenarioSpec(
    "dup5", k=5, mode=MODE_DUP, transport="inline",
    title="Dup5", figure_order=2,
))


# ----------------------------------------------------------------------
# the other realisations of the same mechanism (no figure column)
# ----------------------------------------------------------------------
register_scenario(ScenarioSpec(
    "virtual2", k=2, mode=MODE_COMBINE, transport="inline", topology="ladder",
    title="Virtualized k=2 (detection only)",
))
register_scenario(ScenarioSpec(
    "virtual3", k=3, mode=MODE_COMBINE, transport="inline", topology="ladder",
    title="Virtualized k=3",
))
register_scenario(ScenarioSpec(
    "transport3", k=3, mode=MODE_COMBINE, transport="inline", depth=3,
    title="Coarse-grained k=3 (3-switch replica networks)",
))
register_scenario(ScenarioSpec(
    "sampled2", k=2, mode=MODE_COMBINE, transport="inline", sample_rate=0.2,
    title="Sampled detection k=2 (20 % compared)",
))
register_scenario(ScenarioSpec(
    "fattree_shielded3", k=3, mode=MODE_COMBINE, transport="inline",
    topology="pod", title="Shielded fat-tree aggregation switch k=3",
))
