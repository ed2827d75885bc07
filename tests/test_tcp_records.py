"""Every record a TCP bulk transfer produces, pinned by digest.

A TCP flow is Reno's timers, cancels and retransmits over the ACK
reverse path; no UDP flow covers any of it.  The grid runs
``run_tcp_flow`` through every Figure 3 variant, in both directions, on
two seeds, plus flows whose retransmission timer fires while data still
flows (a lossy or a flapped access link) and ``total_bytes`` transfers
(a short tail segment and a FIN, one of them over a lossy link), and one
flow whose SYN is lost and retried.
``benchmarks/tcp_records_baseline.json`` holds the sha256 of the
canonical JSON of each run's :class:`~repro.traffic.tcp.TcpFlowResult`
together with the events the simulator processed and the frames its
links delivered, written before TCP segments were stamped from a
template.  A digest that moves is a change of simulated behaviour:
regenerate only for an intended one, and say so in the commit message::

    PYTHONPATH=src python -m tests.test_tcp_records
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.scenarios.registry import figure_scenarios
from repro.scenarios.testbed import build_testbed
from repro.traffic.iperf import DRAIN_TIME, run_tcp_flow
from repro.traffic.tcp import TcpReceiver, TcpSender

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "tcp_records_baseline.json"
)

#: simulated seconds of one pinned flow (after ``run_tcp_flow``'s 1 ms warm-up)
DURATION = 0.01
#: a bounded transfer: 34 full segments and a 367-byte tail
TOTAL_BYTES = 34 * 1460 + 367


def _access_link(testbed, host: str):
    return next(link for link in testbed.network.links if link.name.startswith(f"{host}-"))


def _lossy(testbed, host: str, probability: float) -> None:
    _access_link(testbed, host).set_loss(probability)


def _flapped(testbed, host: str, at: float, down: float) -> None:
    link = _access_link(testbed, host)
    sim = testbed.network.sim
    sim.schedule(at, link.fail)
    sim.schedule(at + down, link.recover)


def _bounded_flow(path, duration: float, total_bytes: int):
    """``run_tcp_flow`` with a sender that sends ``total_bytes`` and closes."""
    net = path.network
    receiver = TcpReceiver(path.server, 5001)
    sender = TcpSender(
        path.client, dst_mac=path.server.mac, dst_ip=path.server.ip, dport=5001,
        min_rto=0.005, total_bytes=total_bytes,
    )
    warmup = 1e-3
    sender.start(duration, delay=warmup)
    net.run(until=net.sim.now + warmup + duration + DRAIN_TIME)
    result = sender.result(duration)
    sender.close()
    receiver.close()
    return result


def run(
    variant: str,
    seed: int,
    reverse: bool = False,
    duration: float = DURATION,
    prepare: Optional[Callable[[Any], None]] = None,
    total_bytes: Optional[int] = None,
) -> dict:
    """One pinned flow's record: its result, events and link hops."""
    testbed = build_testbed(variant, seed=seed)
    if prepare is not None:
        prepare(testbed)
    path = testbed.path(reverse=reverse)
    if total_bytes is None:
        result = run_tcp_flow(path, duration=duration)
    else:
        result = _bounded_flow(path, duration, total_bytes)
    network = testbed.network
    return {
        "flow": asdict(result),
        "events": network.sim.events_processed,
        "hops": sum(
            stats.delivered_packets
            for link in network.links
            for _name, stats, _depth in link.directions()
        ),
    }


def grid() -> Dict[str, Callable[[], dict]]:
    """The pinned runs, by name."""
    runs: Dict[str, Callable[[], dict]] = {}
    for variant in figure_scenarios():
        for seed in (1, 2):
            for reverse in (False, True):
                direction = "h2-h1" if reverse else "h1-h2"
                runs[f"flow/{variant}/{direction}/{seed}"] = partial(
                    run, variant, seed, reverse
                )
    # the retransmission timer fires while data still flows: lost
    # segments and ACKs on the sender's access link, or the receiver's
    # access link down for a few ms
    for variant, seed in (("linespeed", 1), ("central3", 1)):
        runs[f"lossy/{variant}/{seed}"] = partial(
            run, variant, seed, duration=0.02,
            prepare=partial(_lossy, host="h1", probability=0.05),
        )
    for variant, seed in (("linespeed", 1), ("central3", 2), ("dup3", 1)):
        runs[f"flapped/{variant}/{seed}"] = partial(
            run, variant, seed, duration=0.02,
            prepare=partial(_flapped, host="h2", at=0.005, down=0.002),
        )
    # the SYN is lost: the handshake is retried once its 200 ms timer fires
    runs["flapped/syn/central3/1"] = partial(
        run, "central3", 1, duration=0.21,
        prepare=partial(_flapped, host="h1", at=0.0, down=0.002),
    )
    for variant in ("linespeed", "central3", "dup3"):
        runs[f"bounded/{variant}/1"] = partial(
            run, variant, 1, duration=0.05, total_bytes=TOTAL_BYTES
        )
    runs["bounded/lossy/linespeed/2"] = partial(
        run, "linespeed", 2, duration=0.05, total_bytes=TOTAL_BYTES,
        prepare=partial(_lossy, host="h1", probability=0.05),
    )
    return runs


def digest(record: Any) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_grid() -> Dict[str, str]:
    return {name: digest(run()) for name, run in grid().items()}


def load_baseline() -> Dict[str, str]:
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["records"]


def test_every_tcp_record_matches_its_pinned_digest():
    pinned = load_baseline()
    current = run_grid()
    assert sorted(current) == sorted(pinned)
    moved = [name for name in pinned if current[name] != pinned[name]]
    assert not moved, f"{len(moved)} of {len(pinned)} records changed: {moved}"


if __name__ == "__main__":
    with open(BASELINE_PATH, "w", encoding="utf-8") as out:
        json.dump(
            {
                "note": "sha256 of the canonical JSON (sorted keys, compact "
                        "separators) of each record tests/test_tcp_records.py "
                        "runs; written at commit d5cb782, before TCP segments "
                        "were stamped from a template and the retransmission "
                        "timer was re-armed in place.",
                "records": run_grid(),
            },
            out, indent=1, sort_keys=True,
        )
        out.write("\n")
    print(f"wrote {os.path.normpath(BASELINE_PATH)}")
