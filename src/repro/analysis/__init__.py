"""Experiment records, farm tasks and plain-text reporting.

The evaluation grids themselves live in :mod:`repro.plan.builtin`
(``builtin_plan("fig7").run(farm)``).
"""
