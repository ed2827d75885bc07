#!/usr/bin/env python3
"""Sampling-based detection (Section IX future work, implemented).

"An efficient alternative could be to reduce load on the compare using
sampling: a simple logic in the data plane forwards a random subset of
packets to a more thorough out-of-band compare logic."

A primary router forwards everything immediately (no vote on the
critical path); a deterministic sample of packets is mirrored from all
branches to an out-of-band compare.  A tampering secondary never touches
delivered traffic and is still caught; the price is that a tampering
*primary* is detected, not prevented.

Run:  python examples/sampling_detection.py
"""

from repro.adversary.modify import PayloadCorruptionBehavior
from repro.core.alarms import ALARM_MINORITY_DIVERGENCE
from repro.scenarios.registry import get_scenario
from repro.scenarios.testbed import build_testbed
from repro.traffic.iperf import run_udp_flow


def run(corrupt_primary: bool) -> None:
    # the registered Section IX scenario: k = 2, branch 0 forwards
    testbed = build_testbed("sampled2", seed=17)
    sample_rate = get_scenario("sampled2").sample_rate
    h2 = testbed.h2

    target = testbed.routers[0 if corrupt_primary else 1]
    PayloadCorruptionBehavior(flip_offset=20).attach(target)

    tampered_delivered = []
    h2.bind_raw(
        lambda p: tampered_delivered.append(p)
        if len(p.payload) > 20 and p.payload[20] != 0
        else None
    )
    flow = run_udp_flow(testbed.path(), rate_bps=20e6, duration=0.05)
    testbed.compare_core.flush()

    role = "PRIMARY" if corrupt_primary else "secondary"
    alarms = testbed.alarms.count(ALARM_MINORITY_DIVERGENCE)
    compare_load = testbed.compare_core.stats.submissions
    print(f"sample rate {sample_rate:.0%}, corrupt {role} router:")
    print(f"  goodput {flow.throughput_mbps:.1f} Mbit/s, loss {flow.loss_rate:.1%}")
    print(f"  compare handled {compare_load} copies "
          f"(vs ~{2 * flow.received_unique} for a full k=2 combiner)")
    print(f"  divergence alarms: {alarms}")
    print(f"  tampered packets delivered: {len(tampered_delivered)}")
    print()


def main() -> None:
    print("NetCo sampling detection\n")
    run(corrupt_primary=False)
    run(corrupt_primary=True)
    print("trade-off: sampling cuts compare load ~5x and keeps the "
          "forwarding path vote-free, but a malicious *primary* is only "
          "detected, never masked — choose per the paper's threat model.")


if __name__ == "__main__":
    main()
