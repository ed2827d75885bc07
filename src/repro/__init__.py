"""NetCo: Reliable Routing With Unreliable Routers — a full Python
reproduction of the DSN 2016 paper.

Packages:

* :mod:`repro.sim` — deterministic discrete-event kernel;
* :mod:`repro.net` — packets, links, hosts and topologies;
* :mod:`repro.openflow` — OpenFlow 1.0 match-action substrate;
* :mod:`repro.apps` — controller applications (learning switch,
  POX-style compare);
* :mod:`repro.core` — the NetCo contribution: endpoints, compare and
  the combiner chain (a shielded router is its one-endpoint case), and
  virtualized combiners;
* :mod:`repro.adversary` — the Section II threat model as pluggable
  router behaviours;
* :mod:`repro.traffic` — iperf/ping analogues with full TCP Reno;
* :mod:`repro.scenarios` — the paper's evaluation scenarios;
* :mod:`repro.analysis` — farm tasks, records and reporting for every
  table and figure (the grids themselves are :mod:`repro.plan` plans).

A package is a namespace and exports nothing: import a name from the
module that defines it (DESIGN.md §6).

Quickstart::

    from repro.core.combiner import CombinerChainParams, build_combiner_chain
    from repro.net.topology import Network

    net = Network(seed=1)
    chain = build_combiner_chain(net, "nc", CombinerChainParams(k=3))
    # attach hosts with net.connect(...), install routes, run traffic.

See ``examples/quickstart.py`` for the end-to-end version.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
