"""Detection latency (MTTD): how fast NetCo's alarms catch a compromise.

Not a table in the paper, but the direct quantification of its detection
claims: for each attack type, a benign combiner runs, the router is
compromised mid-run, and the time to the first operator alarm is
measured under steady ping traffic (1 ms cycle).
"""

from conftest import emit

from repro.analysis.report import format_table
from repro.chaos.schedule import BehaviorOn, ChaosEngine, FaultSchedule
from repro.core.combiner import CombinerChainParams, build_combiner_chain
from repro.core.compare import CompareConfig
from repro.net.topology import Network
from repro.traffic.iperf import PathEndpoints, run_ping

COMPROMISE_AT = 0.01

#: data-plane entries of the adversary catalogue, one per kind of alarm
ATTACKS = ("payload_corruption", "blackhole", "reroute", "replay_flood")


def measure(attack_name: str, seed: int = 81):
    net = Network(seed=seed)
    chain = build_combiner_chain(
        net, "nc",
        CombinerChainParams(
            k=3,
            compare=CompareConfig(k=3, buffer_timeout=2e-3, miss_threshold=5,
                                  dup_threshold=4),
        ),
    )
    h1, h2 = net.add_host("h1"), net.add_host("h2")
    net.connect(h1, chain.endpoint_a)
    net.connect(h2, chain.endpoint_b)
    chain.install_mac_route(h2.mac, toward="b")
    chain.install_mac_route(h1.mac, toward="a")

    ChaosEngine(
        FaultSchedule(
            [BehaviorOn(COMPROMISE_AT, chain.router(1).name, behavior=attack_name)]
        ),
        net,
        compare_core=chain.compare_core,
    ).arm()
    result = run_ping(PathEndpoints(net, h1, h2), count=60, interval=1e-3)
    chain.compare_core.flush()
    after = [a.time for a in chain.alarms.alarms if a.time >= COMPROMISE_AT]
    latency = min(after) - COMPROMISE_AT if after else None
    return latency, result.received


def run_all():
    return {name: measure(name) for name in ATTACKS}


def test_detection_latency():
    results = run_all()
    rows = [
        [name,
         f"{latency * 1e3:.2f} ms" if latency is not None else "undetected",
         f"{received}/60"]
        for name, (latency, received) in results.items()
    ]
    emit("Detection latency after mid-run compromise (k=3, 1 ms ping cycle)\n"
         + format_table(["attack", "time to first alarm", "cycles ok"], rows))

    for name, (latency, received) in results.items():
        assert latency is not None, f"{name} went undetected"
        assert received == 60, f"{name} broke liveness"
    # tamper-style attacks are caught within a few buffer timeouts; the
    # blackhole needs miss_threshold consecutive packets
    assert results["payload_corruption"][0] < 0.01
    assert results["reroute"][0] < 0.01
    assert results["replay_flood"][0] < 0.01
    assert results["blackhole"][0] < 0.02
