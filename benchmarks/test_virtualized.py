"""Section VII (Figure 9) — the virtualized NetCo.

The combiner is emulated with path diversity: k node-disjoint VLAN
tunnels between two edge switches and an in-band compare at the egress.
The benchmark shows the same detection/prevention arithmetic as the
physical combiner, plus the overhead the tunnels cost.
"""

from conftest import emit

from repro.analysis.report import format_table
from repro.plan.builtin import builtin_plan
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

    # the adversarial rows are the `repro virtualized` plan: one vendor's
    # transit corrupts every payload, against k=2 and k=3 tunnels
    detect, prevent = builtin_plan("virtualized").run()
    results["prevent_corrupt"] = (
        prevent["received"], prevent["sent"],
        prevent["compare"]["expired_unreleased"],
    )
    results["detect_corrupt"] = (
        detect["received"], detect["sent"], sum(detect["alarms"].values())
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
    received, sent, died = results["prevent_corrupt"]
    rows.append(["k=3 + corrupt vendor", f"datagrams={received}/{sent}",
                 f"copies died={died}", "PREVENTED"])
    received, sent, alarms = results["detect_corrupt"]
    rows.append(["k=2 + corrupt vendor", f"datagrams={received}/{sent}",
                 f"alarms={alarms}", "DETECTED"])
    emit("Section VII virtualized NetCo\n" + format_table(
        ["configuration", "a", "b", "c"], rows))

    # benign tunnels lose nothing and complete every cycle
    for k in (1, 2, 3):
        loss, rtt, received = results[f"benign_k{k}"]
        assert loss == 0.0 and received == 20
    # RTT grows mildly with k (more copies to queue/serve)
    assert results["benign_k1"][1] <= results["benign_k3"][1]
    # k=3 prevents: every datagram arrives, tampered copies die unreleased
    received, sent, died = results["prevent_corrupt"]
    assert received == sent
    assert died >= sent
    # k=2 detects: traffic stalls but alarms fire
    received, sent, alarms = results["detect_corrupt"]
    assert received == 0
    assert alarms > 0
