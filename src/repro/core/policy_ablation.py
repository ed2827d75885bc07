"""Compare policies that only the policy ablation selects.

Section III: "depending on the threat model, packets may be compared
bit-by-bit, or just based on the header, or hashing can be used."  Every
experiment votes bit-exact (:class:`~repro.core.policy.BitExactPolicy`);
the alternatives here exist for ``benchmarks/test_ablations.py``, which
measures what each one lets through, and for their tests.  Neither is
part of the trusted base (DESIGN §11).
"""

from __future__ import annotations

import hashlib

from repro.core.policy import ComparePolicy
from repro.net.packet import (
    ETHERNET_HEADER_LEN,
    IPV4_HEADER_LEN,
    VLAN_TAG_LEN,
    Packet,
)


class HeaderOnlyPolicy(ComparePolicy):
    """Vote on the L2 + L3 headers only.

    Cheaper; detects rerouting and address/VLAN rewriting, but a
    payload-only modification by a single router wins the vote
    undetected (transport checksums cover the payload, so they are
    excluded too).  Included because the paper explicitly names header
    comparison as an option — the ablation benchmark quantifies the
    trade-off.
    """

    name = "header-only"

    def key(self, packet: Packet) -> bytes:
        wire = packet.wire_cache()
        if wire is not None:
            # The key is a pure re-slicing of the frame: Ethernet header
            # with the *inner* ethertype, VLAN tag, then the IP header
            # exactly as serialised (same total_length, same checksum).
            _eth, vlan, ip, _l4 = packet.fields()
            if vlan is None:
                return wire[:34] if ip is not None else wire[:ETHERNET_HEADER_LEN]
            if ip is not None:
                return wire[:12] + wire[16:18] + wire[14:38]
            return wire[:12] + wire[16:18] + wire[14:18]
        eth, vlan, ip, _l4 = packet.fields()
        parts = [eth.to_bytes()]
        if vlan is not None:
            parts.append(vlan.to_bytes(eth.ethertype))
        if ip is not None:
            # IP header includes total_length, so length tampering is
            # still caught; the payload bytes themselves are not.  Work
            # on a copy: Ipv4.to_bytes records the length it was given.
            overhead = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN
            if vlan is not None:
                overhead += VLAN_TAG_LEN
            parts.append(ip.copy().to_bytes(packet.wire_len - overhead))
        return b"".join(parts)


class HashPolicy(ComparePolicy):
    """Vote on a cryptographic digest of the full frame.

    Same detection power as bit-exact but constant-size cache entries
    (the paper suggests hashing to shrink compare state).
    """

    name = "hash"

    def __init__(self, algorithm: str = "sha256") -> None:
        self._algorithm = algorithm
        # Fail fast on unknown algorithms rather than on first packet.
        hashlib.new(algorithm)

    def key(self, packet: Packet) -> bytes:
        digest = hashlib.new(self._algorithm)
        digest.update(packet.to_bytes())
        return digest.digest()

    def __repr__(self) -> str:
        return f"HashPolicy({self._algorithm!r})"
