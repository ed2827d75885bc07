"""NetCo core: robust network combiners from untrusted routers.

The primary contribution of the paper, as a library:

* :class:`~repro.core.endpoint.CombinerEndpoint` — the trusted, simple
  component: hub one way, collector and egress the other;
* :class:`~repro.core.compare.CompareCore` — majority voting with
  bounded buffering, DoS mitigation and liveness alarms;
* :func:`~repro.core.combiner.build_combiner_chain` — the Figure 3
  evaluation unit and, with one endpoint, Figure 2's drop-in shielded
  router for one n-port router;
* :mod:`~repro.core.virtual` — the trusted edges of the Section VII
  virtualized combiner over diverse paths (``scenarios.virtualized``).

Both are read through one handle, :class:`~repro.core.combiner.CombinerChain`;
in each a copy's branch is the trusted port it arrived on.
"""
