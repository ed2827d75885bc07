"""Declarative experiment plans: the policy object behind every figure.

An :class:`ExperimentPlan` is a JSON-serialisable description of one
experiment — which scenarios to build (names resolved through the
scenario registry, :mod:`repro.scenarios.registry`), which parameter
axes to sweep, which traffic task to run at each grid point, which
seeds/repetitions to take, and an optional embedded
:class:`~repro.chaos.schedule.FaultSchedule` battery.  The plan is pure
*policy*; the *mechanisms* stay where they are:

* :meth:`ExperimentPlan.expand` compiles the plan into the flat
  ``List[RunSpec]`` the experiment farm executes (sharded, cached,
  deterministic — all of PR 1 applies unchanged);
* :meth:`ExperimentPlan.merge` folds farm results back into figure
  records through the *merge registry* (:mod:`repro.plan.mergers`), in
  spec order, never completion order, so parallel output stays
  bit-identical to serial.

A plan is a list of *stages* so that multi-metric experiments (Table I
is TCP + UDP + RTT) expand into **one** farm batch: every independent
simulation of every stage lands in the same spec list, shards never
idle between metrics, and each stage still merges its own slice of the
results.

Expansion order is deterministic and documented: for each stage, the
grid is ``scenarios × schedules × sweep axes (sorted by name) × seeds``
with seeds innermost — exactly the loop nesting the historical
``specs_*`` builders used, which is what keeps plan-built specs (and
therefore cache keys and merged records) bit-identical to the legacy
API.  ``rep_args`` values cycle by seed *position*, expressing designs
like Figure 4's alternating transfer direction declaratively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, List, Optional

from repro.chaos.schedule import FaultSchedule
from repro.farm.executor import FarmExecutor
from repro.farm.spec import RunSpec, resolve_runner
from repro.plan.mergers import get_combiner, get_merger
from repro.scenarios.registry import get_scenario
from repro.scenarios.testbed import TestbedParams

__all__ = ["PLAN_VERSION", "PlanStage", "ExperimentPlan"]

PLAN_VERSION = 1

#: TestbedParams field names, for validating stage ``params`` overrides
_PARAM_FIELDS = frozenset(TestbedParams.__dataclass_fields__)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass
class PlanStage:
    """One task grid of a plan: a runner swept over scenario/parameter
    axes, with its own seeds and merge recipe.

    ``params`` is the literal value the farm task receives as its
    ``params`` kwarg: ``None`` for calibrated defaults, or a (full or
    partial) ``TestbedParams`` field dict.
    """

    name: str
    task: str
    seeds: List[int]
    merge: Dict[str, Any]
    scenarios: List[str] = field(default_factory=list)
    schedules: List[Dict[str, Any]] = field(default_factory=list)
    sweep: Dict[str, List[Any]] = field(default_factory=dict)
    args: Dict[str, Any] = field(default_factory=dict)
    rep_args: Dict[str, List[Any]] = field(default_factory=dict)
    params: Optional[Dict[str, Any]] = None

    # -- validation -----------------------------------------------------
    def validate(self) -> None:
        _require(bool(self.name), "stage name must be non-empty")
        try:
            resolve_runner(self.task)
        except KeyError as exc:
            raise ValueError(f"stage {self.name!r}: {exc.args[0]}") from None
        _require(
            bool(self.seeds) and all(isinstance(s, int) for s in self.seeds),
            f"stage {self.name!r}: seeds must be a non-empty list of ints",
        )
        for variant in self.scenarios:
            get_scenario(variant)  # raises with the registry's message
        for schedule in self.schedules:
            FaultSchedule.from_dict(schedule)  # validates events + fields
        for axis, values in self.sweep.items():
            _require(
                isinstance(values, list) and bool(values),
                f"stage {self.name!r}: sweep axis {axis!r} must be a "
                f"non-empty list",
            )
        for key, cycle in self.rep_args.items():
            _require(
                isinstance(cycle, list) and bool(cycle),
                f"stage {self.name!r}: rep_args {key!r} must be a "
                f"non-empty list to cycle over",
            )
        if self.params is not None:
            unknown = set(self.params) - _PARAM_FIELDS
            _require(
                not unknown,
                f"stage {self.name!r}: unknown testbed param(s) "
                f"{sorted(unknown)}",
            )
        _require(
            isinstance(self.merge, dict) and "kind" in self.merge,
            f"stage {self.name!r}: merge must be a dict with a 'kind'",
        )
        get_merger(self.merge["kind"]).check(self.name, self.merge)

    # -- expansion ------------------------------------------------------
    def axes(self) -> List[tuple]:
        """The grid axes, outermost first: ``(kwarg name, values)``."""
        axes: List[tuple] = []
        if self.scenarios:
            axes.append(("variant", list(self.scenarios)))
        if self.schedules:
            axes.append(("schedule", list(self.schedules)))
        for name in sorted(self.sweep):
            axes.append((name, list(self.sweep[name])))
        return axes

    def expand(self) -> List[RunSpec]:
        """Compile the stage into farm work items (see module doc for
        the ordering contract)."""
        axes = self.axes()
        names = [name for name, _ in axes]
        specs: List[RunSpec] = []
        for point in product(*(values for _, values in axes)):
            for index, seed in enumerate(self.seeds):
                kwargs: Dict[str, Any] = dict(zip(names, point))
                kwargs.update(self.args)
                for key, cycle in self.rep_args.items():
                    kwargs[key] = cycle[index % len(cycle)]
                kwargs["params"] = self.params
                specs.append(RunSpec(self.task, kwargs, seed=seed))
        return specs

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "task": self.task,
            "seeds": list(self.seeds),
            "merge": dict(self.merge),
        }
        if self.scenarios:
            data["scenarios"] = list(self.scenarios)
        if self.schedules:
            data["schedules"] = [dict(s) for s in self.schedules]
        if self.sweep:
            data["sweep"] = {k: list(v) for k, v in self.sweep.items()}
        if self.args:
            data["args"] = dict(self.args)
        if self.rep_args:
            data["rep_args"] = {k: list(v) for k, v in self.rep_args.items()}
        if self.params is not None:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanStage":
        record = dict(data)
        known = {
            "name", "task", "seeds", "merge", "scenarios", "schedules",
            "sweep", "args", "rep_args", "params",
        }
        unknown = set(record) - known
        _require(
            not unknown,
            f"plan stage: unknown field(s) {sorted(unknown)} "
            f"(allowed: {sorted(known)})",
        )
        for required in ("name", "task", "seeds", "merge"):
            _require(required in record, f"plan stage: missing field {required!r}")
        return cls(
            name=record["name"],
            task=record["task"],
            seeds=list(record["seeds"]),
            merge=dict(record["merge"]),
            scenarios=list(record.get("scenarios", [])),
            schedules=list(record.get("schedules", [])),
            sweep=dict(record.get("sweep", {})),
            args=dict(record.get("args", {})),
            rep_args=dict(record.get("rep_args", {})),
            params=record.get("params"),
        )


@dataclass
class ExperimentPlan:
    """A named, validated, JSON-serialisable experiment description."""

    name: str
    stages: List[PlanStage]
    description: str = ""
    combine: Optional[str] = None

    # -- validation -----------------------------------------------------
    def validate(self) -> None:
        _require(bool(self.name), "plan name must be non-empty")
        _require(bool(self.stages), f"plan {self.name!r}: no stages")
        seen = set()
        for stage in self.stages:
            _require(
                stage.name not in seen,
                f"plan {self.name!r}: duplicate stage name {stage.name!r}",
            )
            seen.add(stage.name)
            stage.validate()
        if self.combine is not None:
            get_combiner(self.combine)  # raises on unknown name

    # -- execution ------------------------------------------------------
    def expand(self) -> List[RunSpec]:
        """Every stage's work items, concatenated — one farm batch."""
        specs: List[RunSpec] = []
        for stage in self.stages:
            specs.extend(stage.expand())
        return specs

    def merge_stages(self, results: Dict[str, Any]) -> Dict[str, Any]:
        """Per-stage merged values, in stage order."""
        staged: Dict[str, Any] = {}
        for stage in self.stages:
            merger = get_merger(stage.merge["kind"])
            staged[stage.name] = merger.merge(stage.expand(), results, stage.merge)
        return staged

    def merge(self, results: Dict[str, Any]) -> Any:
        """Fold farm results into the plan's final value.

        Single-stage plans return that stage's merged value directly;
        multi-stage plans return ``{stage name: value}`` unless a
        ``combine`` recipe folds them further (Table I).
        """
        staged = self.merge_stages(results)
        if self.combine is not None:
            return get_combiner(self.combine).combine(staged)
        if len(staged) == 1:
            return next(iter(staged.values()))
        return staged

    def run(self, farm: Optional[FarmExecutor] = None) -> Any:
        """Expand, execute on the farm (inline if none given), merge."""
        executor = farm if farm is not None else FarmExecutor()
        return self.merge(executor.run(self.expand()))

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "version": PLAN_VERSION,
            "name": self.name,
            "stages": [stage.to_dict() for stage in self.stages],
        }
        if self.description:
            data["description"] = self.description
        if self.combine is not None:
            data["combine"] = self.combine
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentPlan":
        record = dict(data)
        version = record.pop("version", PLAN_VERSION)
        if version > PLAN_VERSION:
            raise ValueError(
                f"plan version {version} is newer than {PLAN_VERSION}"
            )
        known = {"name", "description", "stages", "combine"}
        unknown = set(record) - known
        _require(
            not unknown,
            f"plan: unknown field(s) {sorted(unknown)} (allowed: "
            f"{sorted(known | {'version'})})",
        )
        for required in ("name", "stages"):
            _require(required in record, f"plan: missing field {required!r}")
        return cls(
            name=record["name"],
            stages=[PlanStage.from_dict(s) for s in record["stages"]],
            description=record.get("description", ""),
            combine=record.get("combine"),
        )

    def to_json(self) -> str:
        """Canonical JSON text — what :meth:`save` writes and the
        byte-identical round-trip tests pin down."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "ExperimentPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def __repr__(self) -> str:
        return (
            f"ExperimentPlan({self.name!r}, stages={len(self.stages)}, "
            f"specs={len(self.expand())})"
        )
