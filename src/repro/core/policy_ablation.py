"""Compare policies that only the policy ablation selects.

Section III: "depending on the threat model, packets may be compared
bit-by-bit, or just based on the header, or hashing can be used."  Every
experiment votes bit-exact (:class:`~repro.core.policy.BitExactPolicy`);
the alternatives here exist for ``benchmarks/test_ablations.py``, which
measures what each one lets through, and for their tests (a combiner of
§IX legacy routers votes through ``mask_src_mac_policy``).  None of them
is part of the trusted base (DESIGN §11).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

from repro.core.policy import BitExactPolicy, ComparePolicy
from repro.net.addresses import MacAddress
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
            _eth, vlan, ip, _l4, _payload = packet.fields()
            if vlan is None:
                return wire[:34] if ip is not None else wire[:ETHERNET_HEADER_LEN]
            if ip is not None:
                return wire[:12] + wire[16:18] + wire[14:38]
            return wire[:12] + wire[16:18] + wire[14:18]
        eth, vlan, ip, _l4, _payload = packet.fields()
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


class MaskedPolicy(ComparePolicy):
    """Wrap another policy, normalising the packet before keying.

    Used where a benign mechanism legitimately differentiates the copies:
    per-path VLAN tags strip before the vote, and a per-branch ``dl_src``
    (each §IX legacy router writes its own) is masked.
    """

    name = "masked"

    def __init__(
        self,
        inner: ComparePolicy,
        normalise: Callable[[Packet], Packet],
        name: str = "masked",
        wire_transform: Optional[Callable[[Packet, bytes], bytes]] = None,
    ) -> None:
        self._inner = inner
        self._normalise = normalise
        self.name = name
        # A wire_transform maps the packet's cached frame straight to the
        # key the normalise+inner pair would produce.  Only sound when the
        # inner policy votes on raw frame bytes.
        self._wire_transform = (
            wire_transform if isinstance(inner, BitExactPolicy) else None
        )

    def key(self, packet: Packet) -> bytes:
        if self._wire_transform is not None:
            wire = packet.wire_cache()
            if wire is not None:
                return self._wire_transform(packet, wire)
        return self._inner.key(self._normalise(packet))

    def __repr__(self) -> str:
        return f"MaskedPolicy({self._inner!r}, name={self.name!r})"


def strip_vlan_policy(inner: ComparePolicy) -> MaskedPolicy:
    """A policy that ignores the VLAN tag (virtualized NetCo tunnels)."""

    def normalise(packet: Packet) -> Packet:
        if packet.vlan is None:
            return packet
        stripped = packet.copy()
        stripped.vlan = None
        return stripped

    def wire_transform(packet: Packet, wire: bytes) -> bytes:
        if packet.fields()[1] is None:  # untagged: key is the frame itself
            return wire
        # Drop the 0x8100 ethertype + TCI; the inner ethertype and the
        # rest of the frame (incl. checksums, which do not cover L2)
        # are already the stripped packet's exact serialisation.
        return wire[:12] + wire[16:]

    return MaskedPolicy(inner, normalise, name=f"{inner.name}+strip-vlan",
                        wire_transform=wire_transform)


def mask_src_mac_policy(inner: ComparePolicy) -> MaskedPolicy:
    """A policy that ignores ``dl_src`` (branches of legacy routers)."""
    zero = MacAddress(0)
    zero_bytes = zero.to_bytes()

    def normalise(packet: Packet) -> Packet:
        masked = packet.copy()
        masked.eth.src = zero
        return masked

    def wire_transform(packet: Packet, wire: bytes) -> bytes:
        return wire[:6] + zero_bytes + wire[12:]

    return MaskedPolicy(inner, normalise, name=f"{inner.name}+mask-src",
                        wire_transform=wire_transform)
