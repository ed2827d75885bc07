#!/usr/bin/env python3
"""Quickstart: build a NetCo combiner, attack it, watch it hold.

Builds the paper's Figure 3 arrangement — two trusted endpoints around
three untrusted routers with a compare host — compromises one router
with a payload-corrupting implant, and runs pings and a UDP flow
through it.  The corrupted copies lose every vote; traffic is unharmed.

Run:  python examples/quickstart.py
"""

from repro.adversary.modify import PayloadCorruptionBehavior
from repro.core.combiner import CombinerChainParams, build_combiner_chain
from repro.core.compare import CompareConfig
from repro.net.topology import Network
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow


def main() -> None:
    # 1. a network with a k=3 robust combiner in the middle
    net = Network(seed=42)
    chain = build_combiner_chain(
        net,
        "netco",
        CombinerChainParams(k=3, compare=CompareConfig(k=3, buffer_timeout=2e-3)),
    )

    # 2. two hosts, one on each side; route on MAC destination, as the
    #    paper's prototype does
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    net.connect(h1, chain.endpoint_a, rate_bps=1e9, delay=2e-6)
    net.connect(h2, chain.endpoint_b, rate_bps=1e9, delay=2e-6)
    chain.install_mac_route(h2.mac, toward="b")
    chain.install_mac_route(h1.mac, toward="a")

    # 3. compromise router 1: it flips a payload byte in every packet
    implant = PayloadCorruptionBehavior()
    implant.attach(chain.router(1))
    print(f"compromised {chain.router(1).name} with {implant.name}")

    # 4. ping through the combiner
    ping = run_ping(PathEndpoints(net, h1, h2), count=10, interval=1e-3)
    print(f"\nping: {ping.received}/{ping.sent} replies, "
          f"avg RTT {ping.avg_rtt_ms:.3f} ms, duplicates {ping.duplicates}")

    # 5. a UDP flow
    udp = run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=20e6, duration=0.05)
    print(f"udp:  {udp.throughput_mbps:.1f} Mbit/s delivered, "
          f"loss {udp.loss_rate:.1%}, duplicates {udp.duplicates}")

    # 6. what the compare saw
    chain.compare_core.flush()
    stats = chain.compare_core.stats
    print(f"\ncompare: {stats.submissions} copies in, {stats.released} released, "
          f"{stats.expired_unreleased} minority copies discarded")
    print(f"tampered packets the implant produced: {implant.corrupted}")
    print(f"tampered packets delivered to a host:  0 (outvoted 2-to-1)")

    assert ping.received == ping.sent
    assert udp.loss_rate == 0.0
    print("\nOK: one malicious router, zero impact.")


if __name__ == "__main__":
    main()
