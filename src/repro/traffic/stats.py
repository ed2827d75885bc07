"""Measurement primitives: RTT samples and RFC 3550 jitter.

These mirror what the paper's tools report: *iperf -u* jitter (the
RFC 3550 interarrival-jitter estimator) and *ping* RTT statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class SummaryStats:
    """A sample list and its mean."""

    samples: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.samples.append(value)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0


class JitterEstimator:
    """RFC 3550 interarrival jitter: J += (|D(i-1,i)| - J) / 16.

    ``D`` compares the spacing of receipt times against the spacing of
    send times (send timestamps ride in the measurement payload, exactly
    as iperf does it).
    """

    def __init__(self) -> None:
        self._prev_send: Optional[float] = None
        self._prev_recv: Optional[float] = None
        self.jitter = 0.0
        self.samples = 0

    def observe(self, send_time: float, recv_time: float) -> None:
        if self._prev_send is not None and self._prev_recv is not None:
            transit_delta = (recv_time - self._prev_recv) - (send_time - self._prev_send)
            self.jitter += (abs(transit_delta) - self.jitter) / 16.0
            self.samples += 1
        self._prev_send = send_time
        self._prev_recv = recv_time

