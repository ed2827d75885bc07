"""Ablations over NetCo's design choices (called out in Sections III/IV/IX).

1. Compare policy: bit-exact vs header-only vs hash.  The paper offers
   all three; the ablation shows header-only silently passes payload
   tampering while bit-exact and hash stop it.
2. Redundancy degree: k in {1, 2, 3, 5, 7} — protection vs throughput
   and RTT.
3. Compare buffer timeout: too small expires honest quorums, adequate
   values are loss-free.
"""

from dataclasses import replace

from conftest import emit

from repro.adversary.modify import PayloadCorruptionBehavior
from repro.analysis.report import format_table
from repro.core.policy import BitExactPolicy, HashPolicy, HeaderOnlyPolicy
from repro.scenarios.testbed import TestbedParams, build_testbed
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow

POLICIES = {
    "bit-exact": BitExactPolicy,
    "header-only": HeaderOnlyPolicy,
    "hash": HashPolicy,
}


def run_policy_ablation():
    """UDP flow through Central3 with a payload-corrupting router 0."""
    outcome = {}
    for name, policy_cls in POLICIES.items():
        params = TestbedParams()
        testbed = build_testbed("central3", params=params, seed=1)
        testbed.compare_core.config.policy = policy_cls()
        PayloadCorruptionBehavior(flip_offset=20).attach(testbed.chain.router(0))
        corrupted = []
        testbed.h2.bind_raw(
            lambda p: corrupted.append(p)
            if p.payload and p.payload[20:21] != b"\x00" and len(p.payload) > 20
            else None
        )
        result = run_udp_flow(
            testbed.path(), rate_bps=20e6, duration=0.03,
            send_cost=params.udp_send_cost,
        )
        outcome[name] = (result.loss_rate, len(corrupted))
    return outcome


def run_k_sweep():
    """Throughput/RTT scaling of the combiner for k = 1..7."""
    rows = {}
    base = TestbedParams()
    for k in (1, 2, 3, 5, 7):
        variant = {1: "linespeed", 3: "central3", 5: "central5"}.get(k)
        if variant is None:
            # build a custom central-k testbed via the chain params
            from repro.core.combiner import CombinerChainParams, build_combiner_chain
            from repro.net.topology import Network

            net = Network(seed=1)
            chain_params = CombinerChainParams(
                k=k,
                compare=base.compare_config(k),
                router_proc_time=base.router_proc_time,
                router_proc_per_byte=base.router_proc_per_byte,
                endpoint_proc_time=base.endpoint_proc_time,
                endpoint_proc_per_byte=base.endpoint_proc_per_byte,
                link_delay=base.link_delay,
                compare_link_delay=base.compare_link_delay,
                switch_service_queue=base.switch_service_queue,
            )
            chain = build_combiner_chain(net, "nc", chain_params)
            h1 = net.add_host(
                "h1", stack_delay=base.host_stack_delay,
                recv_cost_base=base.host_recv_cost_base,
                recv_cost_per_byte=base.host_recv_cost_per_byte,
            )
            h2 = net.add_host(
                "h2", stack_delay=base.host_stack_delay,
                recv_cost_base=base.host_recv_cost_base,
                recv_cost_per_byte=base.host_recv_cost_per_byte,
            )
            net.connect(h1, chain.endpoint_a, rate_bps=base.link_rate_bps,
                        delay=base.link_delay)
            net.connect(h2, chain.endpoint_b, rate_bps=base.link_rate_bps,
                        delay=base.link_delay)
            chain.install_mac_route(h2.mac, toward="b")
            chain.install_mac_route(h1.mac, toward="a")
            path = PathEndpoints(net, h1, h2)
        else:
            path = build_testbed(variant, seed=1).path()
        ping = run_ping(path, count=20, interval=1e-3)
        rows[k] = (ping.avg_rtt_ms, k // 2)  # RTT, traitors tolerated
    return rows


def run_timeout_ablation():
    """Compare buffer timeout sensitivity in Central3."""
    outcome = {}
    for timeout in (2e-6, 200e-6, 5e-3):
        params = replace(TestbedParams(), compare_buffer_timeout=timeout)
        testbed = build_testbed("central3", params=params, seed=1)
        result = run_ping(testbed.path(), count=20, interval=1e-3)
        outcome[timeout] = result.received
    return outcome


def test_policy_ablation():
    outcome = run_policy_ablation()
    rows = [
        [name, f"loss={loss:.3f}", f"corrupted delivered={bad}"]
        for name, (loss, bad) in outcome.items()
    ]
    emit("Ablation: compare policy vs payload corruption (Central3)\n"
         + format_table(["policy", "udp loss", "tamper leak"], rows))

    # bit-exact and hash block the tampered copies entirely
    assert outcome["bit-exact"][1] == 0
    assert outcome["hash"][1] == 0
    assert outcome["bit-exact"][0] == 0.0
    # header-only lets payload tampering through (the attacker is branch
    # 0, whose copy is frequently the cached first arrival)
    assert outcome["header-only"][1] > 0


def test_k_sweep():
    rows = run_k_sweep()
    emit("Ablation: redundancy degree k\n" + format_table(
        ["k", "avg RTT ms", "traitors masked"],
        [[str(k), f"{rtt:.3f}", str(t)] for k, (rtt, t) in sorted(rows.items())],
    ))
    rtts = [rows[k][0] for k in (1, 2, 3, 5, 7)]
    assert rtts == sorted(rtts)  # RTT grows monotonically with k


def test_timeout_ablation():
    outcome = run_timeout_ablation()
    emit("Ablation: compare buffer timeout (Central3, 20 pings)\n"
         + format_table(
             ["timeout", "pings completed"],
             [[f"{t*1e6:.0f}us", str(v)] for t, v in sorted(outcome.items())],
         ))
    # a timeout below the branch latency spread expires honest quorums
    assert outcome[2e-6] < 20
    # adequate timeouts are loss-free
    assert outcome[5e-3] == 20
