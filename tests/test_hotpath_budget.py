"""Host-independent gate on the cost of one simulated packet-hop.

Wall time on a shared host drifts by tens of per cent; the number of
Python calls a hop costs does not drift at all.  This runs the
``des_udp_central3`` recipe of ``bench/workloads.py`` at one-tenth size
under ``cProfile`` and holds the per-packet path to a call budget, so a
regression on the hot path (a property where an attribute did, a closure
and a handle per event, an extra frame between ``Port.send`` and the
wire) fails tier-1 by name instead of hiding in timer noise.

Calls per hop, this recipe: 70.5 before the lean hop, 44.6 with it.
"""

from __future__ import annotations

import cProfile
import pstats

from repro.scenarios.testbed import TestbedParams, build_testbed
from repro.traffic.iperf import run_udp_flow

#: budget, in profiled calls (built-ins included) per link hop
MAX_CALLS_PER_HOP = 55
#: what the recipe simulates; any change here is a change of simulated
#: behaviour, not of speed, and must be explained (the counts are those
#: of the commit before `Simulator.post` existed)
HOPS = 10_320
EVENTS = 22_400


def _link_hops(network) -> int:
    return sum(
        stats.delivered_packets
        for link in network.links
        for _name, stats, _depth in link.directions()
    )


def test_calls_and_events_per_hop():
    testbed = build_testbed("central3", params=TestbedParams(batch_train=1), seed=1)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(10):
        flow = run_udp_flow(
            testbed.path(), rate_bps=200e6, duration=0.005, payload_size=1470
        )
        assert flow.lost == 0
    profile.disable()
    hops = _link_hops(testbed.network)
    events = testbed.network.sim.events_processed
    assert (hops, events) == (HOPS, EVENTS)
    calls = pstats.Stats(profile).total_calls
    assert calls / hops <= MAX_CALLS_PER_HOP, (
        f"{calls / hops:.1f} calls per hop; "
        "`python bench/run.py --workload des_udp_central3 --trace` names the layer"
    )
