"""The adversary catalogue: every adversary this repository models, named once.

An :class:`Entry` is keyed by ``(plane, name)`` — ``blackhole`` is both a
data-plane behaviour (a router that swallows traffic) and a control-plane
lie (a replica that points every output at a dead port).  It gives the
factory, the placement a sweep arms it with (one branch, a minority or a
quorum) and the threat it models: the paper's Section II list, or the
related-work attacker it is drawn from.  What an entry *requires* (a
compare core's hooks, a branch index) and which knobs it reads are read
off its class.

A :class:`Row` is one line of a sweep: an entry plus its parameters, e.g.
``sampled_p001`` is ``sampled_corruption`` at rate 0.001.  The chaos
engine's adversary events, the advbench and ctrlbft sweeps and the tests
resolve names only here; nothing else keeps a list of adversaries.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.adversary.behaviors import (
    AdversarialBehavior,
    BenignBehavior,
    Target,
    match_udp,
)
from repro.adversary.dos import BlackholeBehavior, ReplayFloodBehavior
from repro.adversary.mirror import MirrorBehavior
from repro.adversary.modify import (
    DropBehavior,
    HeaderRewriteBehavior,
    PayloadCorruptionBehavior,
    vlan_rewrite,
)
from repro.adversary.reroute import PortSwapBehavior, RerouteBehavior
from repro.adversary.strategies import (
    CollusionCorruption,
    PathInconsistency,
    ProbationEvader,
    SampledCorruption,
    SweepTimedCorruption,
)
from repro.openflow.actions import Output

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.openflow.messages import FlowMod

DATA, CONTROL = "data", "control"
#: placements: branch (replica) 1; branches 0..quorum-2; 0..quorum-1
ONE, MINORITY, QUORUM = "one", "minority", "quorum"

#: nonexistent switch port a blackholing liar rewrites outputs to; the
#: switch drops such packets with a ``switch.drop reason=bad_port`` trace
BOGUS_PORT = 9999


@dataclass(frozen=True)
class Entry:
    plane: str
    name: str
    #: data plane: ``Target -> AdversarialBehavior``; control plane: the
    #: FlowMod mutator (``None`` return = withhold), or ``None`` for the
    #: fail-stop replica that ``controller_crash`` arms
    factory: Optional[Callable]
    #: data plane: the class the factory builds (build() reads its
    #: ``requires_compare`` / ``requires_branch``, check() its ``knobs``)
    cls: Optional[type]
    placement: str
    threat: str


def _wired(switch) -> List[int]:
    return sorted(no for no, port in switch.ports.items() if port.is_wired)


def _spare_port(switch) -> int:
    """The wired port the switch's routes name least (lowest on a tie):
    the ingress side of a chain branch, and on a shielded replica, all of
    whose links end at the one endpoint, the claim-link no route names."""
    named = Counter(
        action.port
        for flow in switch.table.entries
        for action in flow.actions
        if isinstance(action, Output)
    )
    return min(_wired(switch), key=lambda no: (named[no], no))


def _port_shift(switch) -> Dict[int, int]:
    """A fixed-point-free shift of the switch's wired ports."""
    ports = _wired(switch)
    return dict(zip(ports, ports[1:] + ports[:1]))


def _data(name, cls, threat, make=None, placement=ONE) -> Entry:
    return Entry(DATA, name, make or (lambda t: cls()), cls, placement, threat)


def _strategy(name, cls, threat, placement=ONE) -> Entry:
    return _data(name, cls, threat, cls, placement)


def _lie_blackhole(mod: FlowMod) -> Optional[FlowMod]:
    """Rewrite every output to a nonexistent port (traffic blackhole)."""
    actions = tuple(
        Output(BOGUS_PORT) if isinstance(a, Output) else a for a in mod.actions
    )
    return dataclasses.replace(mod, actions=actions)


def _lie_suppress(mod: FlowMod) -> Optional[FlowMod]:
    """Withhold the flow-mod entirely (silent sabotage)."""
    return None


def _lie_priority(mod: FlowMod) -> Optional[FlowMod]:
    """A subtle lie: same route, different priority (shadow rules)."""
    return dataclasses.replace(mod, priority=mod.priority + 1)


CATALOGUE: Dict[Tuple[str, str], Entry] = {(e.plane, e.name): e for e in (
    # -- the paper's Section II threats, static from activation on ------
    _data("benign", BenignBehavior, "§II control: a dormant implant"),
    _data("blackhole", BlackholeBehavior, "§II threat 4: DoS by dropping everything"),
    _data("drop", DropBehavior, "§II threat 3: delete the UDP datagrams",
          lambda t: DropBehavior(match_udp())),
    _data("payload_corruption", PayloadCorruptionBehavior,
          "§II threat 3: modify the payload"),
    _data("header_rewrite", HeaderRewriteBehavior,
          "§II threat 3: change the VLAN field to break isolation",
          lambda t: HeaderRewriteBehavior(vlan_rewrite(666))),
    _data("replay_flood", ReplayFloodBehavior,
          "§II threat 4: generate a very large number of packets"),
    _data("reroute", RerouteBehavior, "§II threat 1: forward to the wrong port",
          lambda t: RerouteBehavior(_spare_port(t.switch))),
    _data("port_swap", PortSwapBehavior, "§II threat 1: a subverted crossbar",
          lambda t: PortSwapBehavior(_port_shift(t.switch))),
    _data("mirror", MirrorBehavior, "§II threat 2: copy to an incorrect port",
          lambda t: MirrorBehavior(_spare_port(t.switch))),
    # -- scheduled strategies drawn from the related work --------------
    _strategy("sampled_corruption", SampledCorruption,
              "Software-Defined Adversarial Trajectory Sampling"),
    _strategy("probation_evader", ProbationEvader, "probation-window evasion"),
    _strategy("sweep_timed", SweepTimedCorruption, "vote-cadence timing"),
    _strategy("path_inconsistency", PathInconsistency, "SDNsec path inconsistency"),
    _strategy("colluding_minority", CollusionCorruption, "BFT collusion", MINORITY),
    # -- control-plane replicas ----------------------------------------
    Entry(CONTROL, "crash", None, None, ONE, "P4BFT / Carbide: a fail-stop replica"),
    Entry(CONTROL, "blackhole", _lie_blackhole, None, ONE, "§II: outputs to a dead port"),
    Entry(CONTROL, "suppress", _lie_suppress, None, ONE, "§II: withhold the flow-mod"),
    Entry(CONTROL, "priority", _lie_priority, None, ONE, "§II: a shadowing priority"),
)}


def names(plane: str) -> List[str]:
    return [name for p, name in CATALOGUE if p == plane]


def _lookup(table: Dict, key, name: str, what: str, known: List[str]):
    """``table[key]``; raises a ValueError naming ``what`` and the known names."""
    found = table.get(key)
    if found is None:
        raise ValueError(f"unknown {what} {name!r} (known: {known})")
    return found


def entry(plane: str, name: str) -> Entry:
    """The catalogue entry ``(plane, name)``; raises on an unknown name."""
    return _lookup(
        CATALOGUE, (plane, name), name, f"{plane}-plane adversary", sorted(names(plane))
    )


def check(name: str, **knobs: Any) -> Entry:
    """The data-plane entry ``name``; raises when a knob its class does
    not read is set away from the :class:`Target` default."""
    found = entry(DATA, name)
    for knob, value in knobs.items():
        if knob not in found.cls.knobs and value != getattr(Target, knob):
            read = ", ".join(found.cls.knobs) or "none"
            raise ValueError(f"{name} does not read {knob} (it reads: {read})")
    return found


def build(name: str, target: Target) -> AdversarialBehavior:
    """Instantiate the data-plane entry ``name`` on ``target``."""
    found = entry(DATA, name)
    if found.cls.requires_compare and target.compare is None:
        raise ValueError(
            f"{name}: strategy needs the compare core's hooks; "
            "hand compare_core= to the ChaosEngine"
        )
    if found.cls.requires_branch and target.branch is None:
        raise ValueError(
            f"{name}: strategy needs a branch index; target a "
            "switch aliased or named r<i>"
        )
    behavior = found.factory(target)
    behavior.branch = target.branch
    return behavior


def lie(name: str) -> Callable[[FlowMod], Optional[FlowMod]]:
    """The FlowMod mutator of the control-plane entry ``name``."""
    found = entry(CONTROL, name)
    if found.factory is None:
        raise ValueError(f"control-plane adversary {name!r} tells no lie")
    return found.factory


@dataclass(frozen=True)
class Row:
    """One sweep row: a catalogue entry (``None``: the honest control),
    its placement and the chaos-event fields it is armed with."""

    name: str
    plane: str
    entry: Optional[str] = None
    placement: Optional[str] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def targets(self, k: int) -> List[str]:
        """The branches (``r<i>``) or replicas (``c<i>``) it compromises;
        a lone replica stands in for replica 1."""
        if self.entry is None:
            return []
        quorum = k // 2 + 1
        indices = {
            ONE: [min(1, k - 1)],
            MINORITY: range(quorum - 1),
            QUORUM: range(quorum),
        }[self.placement]
        prefix = "r" if self.plane == DATA else "c"
        return [f"{prefix}{i}" for i in indices]


def _row(plane, name, of=None, placement=None, **params) -> Row:
    """The row ``name`` of entry ``of`` (default: ``name``), placed as the
    entry is unless ``placement`` says otherwise."""
    of = of or name
    placement = placement or entry(plane, of).placement
    return Row(name, plane, of, placement, tuple(params.items()))


ROWS: Dict[str, Dict[str, Row]] = {plane: {r.name: r for r in rows} for plane, rows in (
    # the advbench sweep.  ``sampled_p<digits>`` encodes the corruption
    # probability (p001 -> 0.001, p1 -> 0.1); ``colluding_quorum`` is the
    # negative control where the voter *must* admit damage.  The Section
    # II rows follow.
    (DATA, (
        _row(DATA, "sampled_p001", "sampled_corruption", rate=0.001),
        _row(DATA, "sampled_p01", "sampled_corruption", rate=0.01),
        _row(DATA, "sampled_p1", "sampled_corruption", rate=0.1),
        _row(DATA, "probation_evader"),
        _row(DATA, "sweep_timed"),
        _row(DATA, "path_inconsistency", pace=3),
        _row(DATA, "colluding_minority"),
        _row(DATA, "colluding_quorum", "colluding_minority", placement=QUORUM),
        *(_row(DATA, name) for name in (
            "blackhole", "drop", "payload_corruption", "replay_flood",
            "header_rewrite", "reroute", "port_swap", "mirror",
        )),
    )),
    # the ctrlbft sweep, on replica c1 (c0 at ctrl_k = 1: the unprotected
    # baseline, where a lone liar installs its lies)
    (CONTROL, (
        Row("none", CONTROL),
        _row(CONTROL, "crash", time=0.012, restart_at=0.030),
        _row(CONTROL, "lying", "blackhole", time=0.010),
    )),
)}


def row(plane: str, name: str) -> Row:
    return _lookup(
        ROWS[plane], name, name, f"{plane}-plane sweep row", list(ROWS[plane])
    )


def row_names(plane: str) -> Tuple[str, ...]:
    return tuple(ROWS[plane])
