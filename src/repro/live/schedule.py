"""Packet-index fault schedules shared by the live demo and its DES twin.

Wall-clock and simulated time cannot be aligned exactly, but the packet
stream can: the source paces sequence numbers deterministically, so
"crash branch 1 at packet 100" means the same thing to a switch process
(stop forwarding sequences >= 100) and to the simulator (fail the router
between the departures of packets 99 and 100).  Everything the verdict
counts — quorums, misses, probation credits — is in packets, so the two
injections produce the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class LiveFault:
    """Crash one branch for a packet-index window.

    The branch forwards nothing for sequences in ``[at_index,
    restart_index)``; ``restart_index=None`` means it never comes back.
    """

    branch: int
    at_index: int
    restart_index: Optional[int] = None

    def validate(self, k: Optional[int] = None) -> None:
        if self.branch < 0:
            raise ValueError(f"branch must be >= 0, got {self.branch}")
        if k is not None and self.branch >= k:
            raise ValueError(f"branch must be < k = {k}, got {self.branch}")
        if self.at_index < 0:
            raise ValueError(f"at_index must be >= 0, got {self.at_index}")
        if self.restart_index is not None and self.restart_index <= self.at_index:
            raise ValueError(
                f"restart_index {self.restart_index} <= at_index {self.at_index}"
            )

    def drops(self, seq: int) -> bool:
        if seq < self.at_index:
            return False
        return self.restart_index is None or seq < self.restart_index

    def to_dict(self) -> dict:
        record = {"branch": self.branch, "at_index": self.at_index}
        if self.restart_index is not None:
            record["restart_index"] = self.restart_index
        return record


@dataclass(frozen=True)
class LiveSchedule:
    """A named set of :class:`LiveFault` windows."""

    name: str
    faults: tuple

    def validate(self, k: Optional[int] = None) -> None:
        """Raise ``ValueError`` on a malformed fault; with ``k``, also on
        a branch the ``k``-branch combiner does not have."""
        for fault in self.faults:
            fault.validate(k)

    def drops(self, branch: int, seq: int) -> bool:
        return any(f.branch == branch and f.drops(seq) for f in self.faults)

    def to_dict(self) -> dict:
        return {"name": self.name, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "LiveSchedule":
        faults = tuple(
            LiveFault(
                branch=int(record["branch"]),
                at_index=int(record["at_index"]),
                restart_index=(
                    int(record["restart_index"])
                    if record.get("restart_index") is not None
                    else None
                ),
            )
            for record in data.get("faults", [])
        )
        schedule = cls(name=data.get("name", "live"), faults=faults)
        schedule.validate()
        return schedule


def default_schedule(
    packets: int, branch: int = 1, restart: bool = False
) -> LiveSchedule:
    """The demo's stock fault: crash ``branch`` a third of the way in.

    Without restart the verdict is unambiguous across backends (one
    quarantine, no readmission); with restart the branch returns at two
    thirds and must earn re-admission through probation.
    """
    at = packets // 3
    restart_index = (2 * packets) // 3 if restart else None
    return LiveSchedule(
        name="crash_restart" if restart else "crash",
        faults=(LiveFault(branch=branch, at_index=at, restart_index=restart_index),),
    )
