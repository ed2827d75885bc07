"""Figure 3 testbed with a replicated, reactive control plane.

The base testbed provisions the untrusted routers' MAC routes statically
(the paper's administrator).  This scenario instead leaves the flow
tables empty and attaches a :class:`~repro.ctrl.replicated.
ReplicatedControlPlane` running k copies of the L2 learning switch:
routes are installed reactively through PacketIn → vote → FlowMod, so a
compromised controller replica is exercised on the real control path of
every existing topology variant.

Flow entries carry a hard timeout, so installed routes keep expiring and
being re-voted — that steady trickle of control decisions is what gives
a quarantined replica probation currency (and a lying one, rope).

The routers have exactly two data ports (ingress bundle side, egress
bundle side), so the learning switch's flood on an unknown destination
*is* the correct route — reactive control never changes which wire a
packet leaves on, only whether a flow entry short-circuits the next
decision.  That is what keeps the data-plane records of a voted run
bit-identical to an unreplicated run on the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.learning import LearningSwitchApp
from repro.chaos.quarantine import QuarantineController
from repro.core.alarms import ALARM_MINORITY_DIVERGENCE, ALARM_ROUTER_UNAVAILABLE
from repro.ctrl.compare import ControlCompareConfig
from repro.ctrl.replicated import ReplicatedControlPlane
from repro.scenarios.testbed import Testbed, TestbedParams, build_testbed

__all__ = ["CtrlParams", "CtrlTestbed", "build_ctrl_testbed"]


@dataclass
class CtrlParams:
    """Control-plane knobs, orthogonal to :class:`TestbedParams`."""

    #: number of controller replicas (1 = unreplicated pass-through)
    ctrl_k: int = 3
    #: per-direction switch <-> control-plane channel latency
    ctrl_latency: float = 20e-6
    #: replica per-message processing cost (0 = instantaneous, which
    #: keeps fan-out and voting synchronous at one sim time — required
    #: for bit-identity with the unreplicated run)
    ctrl_proc_time: float = 0.0
    vote_timeout: float = 2e-3
    miss_threshold: int = 4
    divergence_threshold: int = 1
    probation_clean_target: int = 6
    #: reactive flows expire and are re-voted at this cadence
    flow_hard_timeout: float = 5e-3
    flow_idle_timeout: float = 0.0

    def compare_config(self) -> ControlCompareConfig:
        return ControlCompareConfig(
            k=self.ctrl_k,
            vote_timeout=self.vote_timeout,
            miss_threshold=self.miss_threshold,
            divergence_threshold=self.divergence_threshold,
            probation_clean_target=self.probation_clean_target,
        )


@dataclass
class CtrlTestbed:
    """A built control-plane scenario."""

    testbed: Testbed
    ctrl: CtrlParams
    control_plane: ReplicatedControlPlane
    quarantine: Optional[QuarantineController]

    @property
    def network(self):
        return self.testbed.network

    @property
    def compare(self):
        return self.control_plane.compare

    @property
    def h1(self):
        return self.testbed.h1

    @property
    def h2(self):
        return self.testbed.h2


def build_ctrl_testbed(
    variant: str,
    ctrl: Optional[CtrlParams] = None,
    params: Optional[TestbedParams] = None,
    seed: Optional[int] = None,
) -> CtrlTestbed:
    """Build any chain scenario under reactive replicated control (a
    virtual one is rejected: its tunnels are provisioned statically)."""
    ctrl = ctrl or CtrlParams()
    testbed = build_testbed(variant, params=params, seed=seed, install_routes=False)
    net = testbed.network

    control_plane = ReplicatedControlPlane(
        net.sim,
        lambda index, name: LearningSwitchApp(
            net.sim,
            name=name,
            trace_bus=net.trace,
            flow_idle_timeout=ctrl.flow_idle_timeout,
            flow_hard_timeout=ctrl.flow_hard_timeout,
        ),
        k=ctrl.ctrl_k,
        name="nc_ctrl",
        trace_bus=net.trace,
        compare_config=ctrl.compare_config(),
        alarm_sink=testbed.alarms,
        proc_time=ctrl.ctrl_proc_time,
    )
    for branch in testbed.branches:
        for switch in branch:
            switch.connect_controller(control_plane, latency=ctrl.ctrl_latency)

    quarantine: Optional[QuarantineController] = None
    if ctrl.ctrl_k >= 2:
        # Self-healing loop: silent replicas (crash signature) and
        # divergent replicas (lying signature) both land in probation.
        quarantine = QuarantineController(
            control_plane.compare,
            net.trace,
            trigger_kinds=(ALARM_ROUTER_UNAVAILABLE, ALARM_MINORITY_DIVERGENCE),
        )
    return CtrlTestbed(
        testbed=testbed,
        ctrl=ctrl,
        control_plane=control_plane,
        quarantine=quarantine,
    )
