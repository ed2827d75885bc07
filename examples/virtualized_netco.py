#!/usr/bin/env python3
"""The virtualized NetCo (Section VII): redundancy without hardware.

Instead of buying k routers per hop, the flow is split at the ingress
edge into VLAN-tagged copies tunnelled over node-disjoint, vendor-
diverse paths and recombined by an in-band compare at the egress edge.

The example provisions the combiner at k=2 (detection) and k=3
(prevention), attacks one vendor's transit switch, and shows the
difference.

Run:  python examples/virtualized_netco.py
"""

from repro.adversary.modify import PayloadCorruptionBehavior
from repro.scenarios.testbed import build_testbed
from repro.traffic.iperf import run_ping


def attack_run(k: int) -> None:
    testbed = build_testbed(f"virtual{k}", seed=9)
    chain = testbed.chain
    print(f"k = {k}: flow split over " + ", ".join(
        "->".join([chain.endpoint_a.name, *(s.name for s in branch),
                   chain.endpoint_b.name])
        for branch in chain.branches))

    implant = PayloadCorruptionBehavior()
    implant.attach(testbed.routers[1])
    print(f"  compromised transit {testbed.routers[1].name}")

    result = run_ping(testbed.path(), count=10, interval=1e-3)
    testbed.compare_core.flush()
    stats = testbed.compare_core.stats
    alarms = testbed.alarms

    print(f"  pings completed:      {result.received}/{result.sent}")
    print(f"  copies released:      {stats.released}")
    print(f"  copies dying in vote: {stats.expired_unreleased}")
    print(f"  alarms raised:        {alarms.count()}")
    if k == 2:
        print("  -> DETECTION: the tampering is visible (votes never "
              "complete, alarms fire) but traffic stalls")
        assert result.received == 0 and alarms.count() > 0
    else:
        print("  -> PREVENTION: the honest majority outvotes the "
              "tampered copies; traffic is unharmed")
        assert result.received == result.sent
    print()


def main() -> None:
    print("Virtualized NetCo (Section VII / Figure 9)\n")
    print("'splitting a flow into two (for detection) or three (for "
          "prevention) copies along different segments of the path ... "
          "has a similar effect as in the physical robust combiner'\n")
    attack_run(k=2)
    attack_run(k=3)


if __name__ == "__main__":
    main()
