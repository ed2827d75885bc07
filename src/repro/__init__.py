"""NetCo: Reliable Routing With Unreliable Routers — a full Python
reproduction of the DSN 2016 paper.

Packages:

* :mod:`repro.sim` — deterministic discrete-event kernel;
* :mod:`repro.net` — packets, links, hosts, topologies (fat-tree);
* :mod:`repro.openflow` — OpenFlow 1.0 match-action substrate;
* :mod:`repro.apps` — controller applications (learning switch, static
  routing, POX-style compare);
* :mod:`repro.core` — the NetCo contribution: hubs, compare, combiner
  chains, shielded routers, virtualized combiners;
* :mod:`repro.adversary` — the Section II threat model as pluggable
  router behaviours;
* :mod:`repro.traffic` — iperf/ping analogues with full TCP Reno;
* :mod:`repro.scenarios` — the paper's evaluation scenarios;
* :mod:`repro.analysis` — farm tasks, records and reporting for every
  table and figure (the grids themselves are :mod:`repro.plan` plans).

Quickstart::

    from repro.net import Network
    from repro.core import CombinerChainParams, build_combiner_chain

    net = Network(seed=1)
    chain = build_combiner_chain(net, "nc", CombinerChainParams(k=3))
    # attach hosts with net.connect(...), install routes, run traffic.

See ``examples/quickstart.py`` for the end-to-end version.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
