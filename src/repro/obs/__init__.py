"""Unified observability: metrics, packet-lifecycle spans, run reports.

Import discipline: hot-path modules (``repro.net.link``,
``repro.core.compare``) import :mod:`repro.obs.metrics` at module load,
so that module stays dependency-free.  The heavier layers
(:mod:`repro.obs.report`, :mod:`repro.obs.summary`,
:mod:`repro.obs.cli`) import scenario/traffic code.
"""
