"""Comparison policies for the NetCo compare element.

Section III of the paper: "depending on the threat model, packets may be
compared bit-by-bit, or just based on the header, or hashing can be
used."  A policy reduces a packet to a *vote key*: two copies belong to
the same vote iff their keys are equal.

The key must be insensitive to transformations a *benign* path legitimately
applies (e.g. the per-branch VLAN tunnel label in the virtualized NetCo)
and sensitive to everything an adversary could abuse.

Every experiment votes bit-exact, so this trusted module holds that
policy and the base class alone; the header-only, hash and masked
policies of the policy ablation live in :mod:`repro.core.policy_ablation`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.packet import Packet


class ComparePolicy:
    """Base class: maps a packet to its vote key (bytes)."""

    #: human-readable policy name (used in reports and ablations)
    name = "abstract"

    def key(self, packet: Packet) -> bytes:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BitExactPolicy(ComparePolicy):
    """Vote on the full serialised frame — the paper's ``memcmp``.

    Strongest policy: any modification (header or payload) by a minority
    of routers is outvoted.
    """

    name = "bit-exact"

    def key(self, packet: Packet) -> bytes:
        """The frame itself: a :class:`~repro.net.packet.Packet`'s wire
        image, or the bytes a live copy arrived with."""
        return packet.to_bytes()
