"""The merge registry: named recipes folding farm results into figures.

Each :class:`Merger` is a pure function over ``(specs, results)`` plus
declarative options from the plan JSON (``{"kind": "mean_record",
"metric": "tcp_mbps", ...}``), with companions that turn the merged
value into report records and deterministic text.  Merging walks the
spec list — never completion order — so a sharded run folds to the same
bytes as a serial one.

:class:`Combiner` recipes fold *multi-stage* plans one step further
(Table I folds three metric records into one scenario × metric table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.records import PAPER_TABLE1, ExperimentRecord, paper_value
from repro.analysis.report import (
    format_table,
    render_record,
    render_series,
    render_table1,
)

__all__ = [
    "Merger",
    "Combiner",
    "get_merger",
    "get_combiner",
    "merger_kinds",
    "combiner_names",
]


@dataclass(frozen=True)
class Merger:
    """One registered merge recipe.

    ``merge(specs, results, options)`` folds task values; ``records``
    flattens the merged value for a RunReport; ``render`` produces the
    deterministic text ``repro plan run`` prints; ``required`` names the
    options :meth:`check` insists on at validate() time.
    """

    kind: str
    merge: Callable[[List[Any], Dict[str, Any], Dict[str, Any]], Any]
    records: Callable[[Any, Dict[str, Any]], List[Dict[str, Any]]]
    render: Callable[[Any, Dict[str, Any]], str]
    required: tuple = ()

    def check(self, stage: str, options: Dict[str, Any]) -> None:
        missing = [key for key in self.required if key not in options]
        if missing:
            raise ValueError(
                f"stage {stage!r}: merge kind {self.kind!r} needs "
                f"option(s) {missing}"
            )


@dataclass(frozen=True)
class Combiner:
    """A registered multi-stage fold: ``{stage name: merged} -> value``."""

    name: str
    combine: Callable[[Dict[str, Any]], Any]
    records: Callable[[Any], List[Dict[str, Any]]]
    render: Callable[[Any], str]


_MERGERS: Dict[str, Merger] = {}
_COMBINERS: Dict[str, Combiner] = {}


def register_merger(merger: Merger) -> Merger:
    _MERGERS[merger.kind] = merger
    return merger


def register_combiner(combiner: Combiner) -> Combiner:
    _COMBINERS[combiner.name] = combiner
    return combiner


def get_merger(kind: str) -> Merger:
    merger = _MERGERS.get(kind)
    if merger is None:
        raise ValueError(
            f"unknown merge kind {kind!r}; registered: {merger_kinds()}"
        )
    return merger


def get_combiner(name: str) -> Combiner:
    combiner = _COMBINERS.get(name)
    if combiner is None:
        raise ValueError(
            f"unknown combine recipe {name!r}; registered: {combiner_names()}"
        )
    return combiner


def merger_kinds() -> List[str]:
    return sorted(_MERGERS)


def combiner_names() -> List[str]:
    return sorted(_COMBINERS)


def _json_text(value: Any) -> str:
    import json

    return json.dumps(value, indent=2, sort_keys=True)


def group_by_variant(specs, results) -> Dict[str, List[Any]]:
    """Task values grouped by scenario, in spec order (never completion
    order) — the heart of every deterministic record merge."""
    grouped: Dict[str, List[Any]] = {}
    for spec in specs:
        grouped.setdefault(spec.kwargs["variant"], []).append(results[spec.key])
    return grouped


# ----------------------------------------------------------------------
# mean_record: per-scenario sample mean -> ExperimentRecord (figs 4, 7)
# ----------------------------------------------------------------------
def _merge_mean_record(specs, results, options):
    record = ExperimentRecord(options["experiment"], options["description"])
    metric, unit = options["metric"], options["unit"]
    for variant, samples in group_by_variant(specs, results).items():
        record.add(
            variant,
            metric,
            sum(samples) / len(samples),
            unit,
            paper_value=paper_value(variant, metric),
        )
    return record


def _record_records(merged, options) -> List[Dict[str, Any]]:
    return [merged.to_dict()]


def _record_render(merged, options) -> str:
    return render_record(merged)


register_merger(Merger(
    kind="mean_record",
    merge=_merge_mean_record,
    records=_record_records,
    render=_record_render,
    required=("experiment", "description", "metric", "unit"),
))


# ----------------------------------------------------------------------
# udp_max_record: one rate-search sample per scenario (fig 5)
# ----------------------------------------------------------------------
def _merge_udp_max_record(specs, results, options):
    record = ExperimentRecord(options["experiment"], options["description"])
    metric, unit = options["metric"], options["unit"]
    for variant, (sample,) in group_by_variant(specs, results).items():
        record.add(
            variant,
            metric,
            sample["mbps"],
            unit,
            paper_value=paper_value(variant, metric),
            loss_rate=sample["loss_rate"],
        )
    return record


register_merger(Merger(
    kind="udp_max_record",
    merge=_merge_udp_max_record,
    records=_record_records,
    render=_record_render,
    required=("experiment", "description", "metric", "unit"),
))


# ----------------------------------------------------------------------
# points: task values in spec order, as tuples (fig 6 sweeps)
# ----------------------------------------------------------------------
def _merge_points(specs, results, options):
    return [tuple(results[spec.key]) for spec in specs]


def _points_records(merged, options) -> List[Dict[str, Any]]:
    fields = options.get("fields")
    if fields:
        return [dict(zip(fields, point)) for point in merged]
    return [{"point": list(point)} for point in merged]


def _points_render(merged, options) -> str:
    """One series table per dependent field (first field is the x axis);
    without ``fields`` the points have no names to head a table with."""
    fields = options.get("fields")
    if not fields:
        return _json_text(_points_records(merged, options))
    x_label, *y_labels = fields
    return "\n".join(
        render_series(
            y_label, x_label, y_label, [(p[0], p[column]) for p in merged]
        )
        for column, y_label in enumerate(y_labels, start=1)
    )


register_merger(Merger(
    kind="points",
    merge=_merge_points,
    records=_points_records,
    render=_points_render,
))


# ----------------------------------------------------------------------
# size_series: mean per (scenario, payload size) (fig 8)
# ----------------------------------------------------------------------
def _merge_size_series(specs, results, options):
    axis = options.get("axis", "payload_size")
    grouped: Dict[str, Dict[Any, List[float]]] = {}
    for spec in specs:
        by_size = grouped.setdefault(spec.kwargs["variant"], {})
        by_size.setdefault(spec.kwargs[axis], []).append(results[spec.key])
    return {
        variant: [
            (size, sum(samples) / len(samples))
            for size, samples in by_size.items()
        ]
        for variant, by_size in grouped.items()
    }


def _size_series_records(merged, options) -> List[Dict[str, Any]]:
    return [
        {"scenario": variant, "points": [[size, value] for size, value in points]}
        for variant, points in merged.items()
    ]


def _size_series_render(merged, options) -> str:
    axis = options.get("axis", "payload_size")
    unit = options.get("unit", "")
    blocks = [
        render_series(
            variant, axis, unit, [(size, round(value, 5)) for size, value in points]
        )
        for variant, points in merged.items()
    ]
    return "\n".join(blocks)


register_merger(Merger(
    kind="size_series",
    merge=_merge_size_series,
    records=_size_series_records,
    render=_size_series_render,
))


# ----------------------------------------------------------------------
# records_list: raw task records in spec order (chaos batteries)
# ----------------------------------------------------------------------
def _merge_records_list(specs, results, options):
    return [results[spec.key] for spec in specs]


def _records_list_records(merged, options) -> List[Dict[str, Any]]:
    return list(merged)


def _records_list_render(merged, options) -> str:
    return _json_text(merged)


register_merger(Merger(
    kind="records_list",
    merge=_merge_records_list,
    records=_records_list_records,
    render=_records_list_render,
))


# ----------------------------------------------------------------------
# chaos_records / ctrlbft_records / virtualized_records: records_list
# with the one line per run that CI greps (`chaos ...` / `ctrlbft ...` /
# `virtualized ...`) as text
# ----------------------------------------------------------------------
def _optional(value: Optional[float]) -> str:
    return f"{value:.4f}" if value is not None else "-"


def _line_per_record(line: Callable[[Dict[str, Any]], str]):
    return lambda merged, options: "\n".join(line(record) for record in merged)


def _chaos_line(r) -> str:
    return (
        f"chaos {r['schedule']} seed={r['seed']}: "
        f"sent={r['sent']} received={r['received']} "
        f"loss_rate={r['loss_rate']:.4f} faults={len(r['injections'])} "
        f"quarantined={r['quarantined']} readmitted={r['readmitted']} "
        f"post_quarantine_gaps={r['post_quarantine_gaps']}"
    )


def _ctrlbft_line(r) -> str:
    return (
        f"ctrlbft {r['variant']} ctrl_k={r['ctrl_k']} "
        f"adversary={r['adversary']} seed={r['seed']}: "
        f"sent={r['sent']} received={r['received']} "
        f"loss_rate={r['loss_rate']:.4f} fp={r['data_fingerprint']} "
        f"blocked={r['ctrl']['blocked']} "
        f"malicious_installed={r['malicious_installed']} "
        f"ctrl_quarantined={r['ctrl_quarantined']} "
        f"detection_latency={_optional(r['detection_latency'])}"
    )


def _virtualized_line(r) -> str:
    # k = 2 cannot outvote a bad copy: the flow stalls and the alarms are
    # the result; k = 3 delivers every datagram over the honest majority
    verdict = "PREVENTED" if r["received"] == r["sent"] else "DETECTED"
    return (
        f"virtualized {r['variant']} + {r['schedule']}: "
        f"{r['received']}/{r['sent']} datagrams, "
        f"{sum(r['alarms'].values())} alarms -> {verdict}"
    )


for _kind, _line in (("chaos_records", _chaos_line),
                     ("ctrlbft_records", _ctrlbft_line),
                     ("virtualized_records", _virtualized_line)):
    register_merger(Merger(
        kind=_kind,
        merge=_merge_records_list,
        records=_records_list_records,
        render=_line_per_record(_line),
    ))


# ----------------------------------------------------------------------
# casestudy_table: the three Section VI runs as the paper's count table
# ----------------------------------------------------------------------
def _casestudy_render(merged, options) -> str:
    rows = [
        [
            r["scenario"],
            str(r["requests_sent"]),
            str(r["requests_at_fw1"]),
            str(r["responses_at_vm1"]),
            str(r["screening"]["strays"]),
        ]
        for r in merged
    ]
    return "Section VI case study\n" + format_table(
        ["scenario", "sent", "req@fw1", "resp@vm1", "strays"], rows
    )


register_merger(Merger(
    kind="casestudy_table",
    merge=_merge_records_list,
    records=_records_list_records,
    render=_casestudy_render,
))


# ----------------------------------------------------------------------
# detection_table: advbench records aggregated over seeds per
# (variant, adversary, profile) -> one `advbench ...` line per row
# ----------------------------------------------------------------------
def _merge_detection_table(specs, results, options):
    grouped: Dict[tuple, Dict[str, Any]] = {}
    order: List[tuple] = []
    for spec in specs:
        rec = results[spec.key]
        key = (rec["variant"], rec["adversary"], rec["profile"])
        row = grouped.get(key)
        if row is None:
            row = grouped[key] = {
                "variant": rec["variant"],
                "k": rec["k"],
                "quorum": rec["quorum"],
                "adversary": rec["adversary"],
                "profile": rec["profile"],
                "seeds": 0,
                "detected": 0,
                "tampered": 0,
                # safety metrics fold as worst-case over seeds, so the
                # "must be 0" claims read straight off the table
                "leaked_max": 0,
                "masked_damage_max": 0,
                "false_quarantine_rate_max": 0.0,
                "_alarm": [],
                "_latency": [],
            }
            order.append(key)
        row["seeds"] += 1
        row["tampered"] += rec["tampered"]
        if rec["time_to_first_alarm"] is not None:
            row["_alarm"].append(rec["time_to_first_alarm"])
        if rec["detection_latency"] is not None:
            row["detected"] += 1
            row["_latency"].append(rec["detection_latency"])
        row["leaked_max"] = max(
            row["leaked_max"], rec["packets_leaked_before_quarantine"]
        )
        row["masked_damage_max"] = max(row["masked_damage_max"], rec["masked_damage"])
        row["false_quarantine_rate_max"] = max(
            row["false_quarantine_rate_max"], rec["false_quarantine_rate"]
        )
    rows = []
    for key in order:
        row = grouped[key]
        alarm = row.pop("_alarm")
        latency = row.pop("_latency")
        row["time_to_first_alarm"] = (
            round(sum(alarm) / len(alarm), 6) if alarm else None
        )
        row["detection_latency"] = (
            round(sum(latency) / len(latency), 6) if latency else None
        )
        rows.append(row)
    return rows


def _advbench_line(r) -> str:
    return (
        f"advbench {r['variant']} k={r['k']} "
        f"adversary={r['adversary']} profile={r['profile']}: "
        f"detected={r['detected']}/{r['seeds']} "
        f"t_alarm={_optional(r['time_to_first_alarm'])} "
        f"t_quarantine={_optional(r['detection_latency'])} "
        f"tampered={r['tampered']} "
        f"leaked={r['leaked_max']} "
        f"masked_damage={r['masked_damage_max']} "
        f"false_quarantine_rate={r['false_quarantine_rate_max']:.2f}"
    )


register_merger(Merger(
    kind="detection_table",
    merge=_merge_detection_table,
    records=_records_list_records,
    render=_line_per_record(_advbench_line),
))


# ----------------------------------------------------------------------
# metric_table: fold stage records into values[metric][scenario]
# (Table I: the tcp/udp/rtt stages of one plan)
# ----------------------------------------------------------------------
def _combine_metric_table(staged: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    values: Dict[str, Dict[str, float]] = {}
    for record in staged.values():
        for row in record.rows:
            values.setdefault(row.metric, {})[row.scenario] = row.value
    return values


def _metric_table_records(values) -> List[Dict[str, Any]]:
    scenarios: List[str] = []
    for per_scenario in values.values():
        for scenario in per_scenario:
            if scenario not in scenarios:
                scenarios.append(scenario)
    return [
        {
            "scenario": scenario,
            **{
                metric: per_scenario[scenario]
                for metric, per_scenario in values.items()
                if scenario in per_scenario
            },
        }
        for scenario in scenarios
    ]


def _metric_table_render(values) -> str:
    paper: Dict[str, Dict[str, float]] = {}
    for (scenario, metric), value in PAPER_TABLE1.items():
        paper.setdefault(metric, {})[scenario] = value
    return render_table1(values, paper=paper)


register_combiner(Combiner(
    name="metric_table",
    combine=_combine_metric_table,
    records=_metric_table_records,
    render=_metric_table_render,
))
