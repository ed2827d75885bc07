"""Section VII (Figure 9) — the virtualized NetCo.

The combiner is emulated with path diversity: k node-disjoint VLAN
tunnels between two edge switches and an in-band compare at the egress.
The benchmark shows the same detection/prevention arithmetic as the
physical combiner, plus the overhead the tunnels cost.
"""

from conftest import emit

from repro.adversary import BlackholeBehavior, PayloadCorruptionBehavior
from repro.analysis.report import format_table
from repro.scenarios.virtualized import build_virtualized_scenario
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow


def run_matrix():
    results = {}

    # benign flows at k = 1..3 (overhead scaling)
    for k in (1, 2, 3):
        scenario = build_virtualized_scenario(k=k, paths_available=3, seed=1)
        udp = run_udp_flow(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            rate_bps=50e6,
            duration=0.05,
        )
        ping = run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=20,
            interval=1e-3,
        )
        results[f"benign_k{k}"] = (udp.loss_rate, ping.avg_rtt_ms, ping.received)

    # prevention: k=3 with a corrupting vendor on path 1
    scenario = build_virtualized_scenario(k=3, seed=1)
    PayloadCorruptionBehavior().attach(scenario.transit(1))
    ping = run_ping(
        PathEndpoints(scenario.network, scenario.src, scenario.dst),
        count=20, interval=1e-3,
    )
    scenario.compare_core.flush()
    results["prevent_corrupt"] = (
        ping.received, scenario.compare_core.stats.expired_unreleased
    )

    # detection: k=2 with a blackhole vendor on path 1
    scenario = build_virtualized_scenario(k=2, seed=1)
    BlackholeBehavior().attach(scenario.transit(1))
    ping = run_ping(
        PathEndpoints(scenario.network, scenario.src, scenario.dst),
        count=20, interval=1e-3,
    )
    scenario.compare_core.flush()
    results["detect_blackhole"] = (
        ping.received, scenario.compare_core.alarms.count()
    )
    return results


def test_virtualized_netco():
    results = run_matrix()

    rows = [
        [f"benign k={k}",
         f"loss={results[f'benign_k{k}'][0]:.3f}",
         f"rtt={results[f'benign_k{k}'][1]:.3f}ms",
         f"pings={results[f'benign_k{k}'][2]}/20"]
        for k in (1, 2, 3)
    ]
    rows.append([
        "k=3 + corrupt vendor",
        f"pings={results['prevent_corrupt'][0]}/20",
        f"copies died={results['prevent_corrupt'][1]}",
        "PREVENTED",
    ])
    rows.append([
        "k=2 + blackhole vendor",
        f"pings={results['detect_blackhole'][0]}/20",
        f"alarms={results['detect_blackhole'][1]}",
        "DETECTED",
    ])
    emit("Section VII virtualized NetCo\n" + format_table(
        ["configuration", "a", "b", "c"], rows))

    # benign tunnels lose nothing and complete every cycle
    for k in (1, 2, 3):
        loss, rtt, received = results[f"benign_k{k}"]
        assert loss == 0.0 and received == 20
    # RTT grows mildly with k (more copies to queue/serve)
    assert results["benign_k1"][1] <= results["benign_k3"][1]
    # k=3 prevents: all cycles complete, tampered copies die unreleased
    assert results["prevent_corrupt"][0] == 20
    assert results["prevent_corrupt"][1] >= 20
    # k=2 detects: traffic stalls but alarms fire
    assert results["detect_blackhole"][0] == 0
    assert results["detect_blackhole"][1] > 0
