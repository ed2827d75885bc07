#!/usr/bin/env python3
"""The Figure 1 *crypto transport* scenario: protecting availability.

"In this scenario, a transport network is shown where all traffic is
encrypted at the edge. Due to the cryptographic protection, an attacker
cannot easily manipulate the correctness of routing. However, it can
target the availability of the network, e.g., by launching a
Denial-of-Service attack."

Encryption stops tampering but not dropping or flooding.  The example
duplicates the whole transport network three ways (the coarse-granular
combiner of Section IX) and shows that

* a blackholing core device cannot interrupt the encrypted flow, and
* a replay-flooding device is contained: its duplicates die at the
  compare, which raises the DoS alarm and advises a port block.

Run:  python examples/crypto_transport.py
"""

from repro.adversary.dos import BlackholeBehavior, ReplayFloodBehavior
from repro.scenarios.testbed import build_testbed
from repro.traffic.iperf import run_udp_flow


def encrypted_payloadish() -> None:
    """Traffic is opaque to the network: the combiner never inspects
    payloads semantically, it only votes on bytes — so ciphertext and
    plaintext are handled identically.  (The 'encryption' here is the
    statement that the *attacker* cannot usefully modify the payload;
    dropping and duplicating remain available, and those are exactly
    what NetCo's quorum and DoS logic absorb.)"""


def main() -> None:
    print("Crypto transport scenario (Figure 1, right)\n")

    # --- availability attack 1: blackhole inside one replica network ---
    # "transport3": k = 3 replica networks of three switches each
    testbed = build_testbed("transport3", seed=51)
    BlackholeBehavior().attach(testbed.branches[1][1])
    print("blackhole at replica network 1, hop 1:")
    flow = run_udp_flow(testbed.path(), rate_bps=30e6, duration=0.05)
    print(f"  encrypted flow: {flow.throughput_mbps:.1f} Mbit/s, "
          f"loss {flow.loss_rate:.1%} -> availability preserved\n")
    assert flow.loss_rate == 0.0

    # --- availability attack 2: replay flood from one replica ---------
    testbed = build_testbed("transport3", seed=52)
    flooder = ReplayFloodBehavior(amplification=15)
    flooder.attach(testbed.branches[2][0])
    print("replay flood (x15) at replica network 2, hop 0:")
    flow = run_udp_flow(testbed.path(), rate_bps=30e6, duration=0.05)
    stats = testbed.compare_core.stats
    print(f"  encrypted flow: {flow.throughput_mbps:.1f} Mbit/s, "
          f"loss {flow.loss_rate:.1%}, duplicates delivered {flow.duplicates}")
    print(f"  compare absorbed {stats.branch_duplicates} duplicate copies, "
          f"issued {stats.blocks_issued} port block(s), "
          f"{testbed.alarms.count('dos_suspected')} DoS alarm(s)")
    assert flow.duplicates == 0
    assert testbed.alarms.count("dos_suspected") >= 1
    print("\nOK: with correctness guaranteed by cryptography, NetCo's "
          "remaining job is availability - and the quorum plus the DoS "
          "mitigation deliver it.")


if __name__ == "__main__":
    main()
