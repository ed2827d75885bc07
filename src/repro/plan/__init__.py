"""Declarative experiment plans over the experiment farm.

``ExperimentPlan`` (one JSON file) composes scenarios from the registry,
parameter sweeps, seeds/repetitions, embedded fault schedules and obs
watch rules; ``expand()`` compiles it to farm work items and the merge
registry folds results back into figure records, bit-identically to the
historical per-figure wiring.
"""
