"""Benchmarks for the Section IX extensions implemented beyond the
paper's prototype: sampling detection and the coarse-granular
(whole-network) combiner."""

from conftest import emit

from repro.adversary.modify import PayloadCorruptionBehavior
from repro.analysis.report import format_table
from repro.core.alarms import ALARM_MINORITY_DIVERGENCE
from repro.core.combiner import CombinerChainParams, build_combiner_chain
from repro.net.topology import Network
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow


def build_rig(seed, **params):
    """h1 — [one combiner chain with ``params``] — h2."""
    net = Network(seed=seed)
    chain = build_combiner_chain(net, "nc", CombinerChainParams(**params))
    h1, h2 = net.add_host("h1"), net.add_host("h2")
    net.connect(h1, chain.endpoint_a)
    net.connect(h2, chain.endpoint_b)
    chain.install_mac_route(h2.mac, toward="b")
    chain.install_mac_route(h1.mac, toward="a")
    return net, chain, h1, h2


def run_sampling_sweep():
    """Compare load and detection count as functions of the sample rate."""
    results = {}
    for rate in (0.0, 0.05, 0.2, 0.5, 1.0):
        net, chain, h1, h2 = build_rig(41, k=2, sample_rate=rate)
        PayloadCorruptionBehavior().attach(chain.router(1))
        flow = run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=20e6,
                            duration=0.05)
        chain.compare_core.flush()
        results[rate] = (
            flow.received_unique,
            chain.compare_core.stats.submissions,
            chain.alarms.count(ALARM_MINORITY_DIVERGENCE),
        )
    return results


def run_transport_sweep():
    """Whole-network replication: RTT overhead vs replica depth."""
    results = {}
    for depth in (1, 2, 4, 8):
        net, _chain, src, dst = build_rig(42, k=3, depth=depth)
        ping = run_ping(PathEndpoints(net, src, dst), count=20, interval=1e-3)
        results[depth] = (ping.avg_rtt_ms, ping.received)
    return results


def test_sampling_tradeoff():
    results = run_sampling_sweep()
    rows = [
        [f"{rate:.0%}", str(delivered), str(load), str(alarms)]
        for rate, (delivered, load, alarms) in sorted(results.items())
    ]
    emit("Extension: sampling detection (k=2, corrupt secondary)\n"
         + format_table(["sample rate", "delivered", "compare copies",
                         "divergence alarms"], rows))

    delivered_counts = {r: v[0] for r, v in results.items()}
    loads = {r: v[1] for r, v in results.items()}
    alarms = {r: v[2] for r, v in results.items()}
    # delivery unaffected by sampling (the primary always forwards)
    assert len(set(delivered_counts.values())) == 1
    # compare load and detections scale with the rate
    assert loads[0.0] == 0 and alarms[0.0] == 0
    assert loads[0.05] < loads[0.5] < loads[1.0]
    assert alarms[0.05] < alarms[1.0]
    # at full sampling every tampered packet is caught
    assert alarms[1.0] >= delivered_counts[1.0]


def test_transport_combiner_scaling():
    results = run_transport_sweep()
    rows = [
        [str(depth), f"{rtt:.3f}", f"{received}/20"]
        for depth, (rtt, received) in sorted(results.items())
    ]
    emit("Extension: coarse-granular combiner (k=3 replica networks)\n"
         + format_table(["network depth", "avg RTT ms", "pings"], rows))

    for depth, (rtt, received) in results.items():
        assert received == 20
    rtts = [results[d][0] for d in (1, 2, 4, 8)]
    assert rtts == sorted(rtts)  # deeper networks cost linearly more RTT
