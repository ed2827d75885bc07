"""NetCo core: robust network combiners from untrusted routers.

The primary contribution of the paper, as a library:

* :class:`~repro.core.endpoint.CombinerEndpoint` — the trusted, simple
  component: hub one way, collector and egress the other;
* :class:`~repro.core.compare.CompareCore` — majority voting with
  bounded buffering, DoS mitigation and liveness alarms;
* :func:`~repro.core.combiner.build_combiner_chain` — the Figure 3
  evaluation unit and, with one endpoint, Figure 2's drop-in shielded
  router for one n-port router;
* :func:`~repro.core.virtual.provision_virtual_combiner` — the Section
  VII virtualized combiner over diverse paths.

Both return one handle, :class:`~repro.core.combiner.CombinerChain`; in
each a copy's branch is the trusted port it arrived on.
"""

from repro.core.alarms import (
    ALARM_BRANCH_QUARANTINED,
    ALARM_BRANCH_READMITTED,
    ALARM_DOS_SUSPECTED,
    ALARM_MINORITY_DIVERGENCE,
    ALARM_ROUTER_UNAVAILABLE,
    ALARM_SINGLE_SOURCE_PACKET,
    ALARM_SPOOFED_BRANCH,
    Alarm,
    AlarmSink,
)
from repro.core.combiner import (
    CombinerChain,
    CombinerChainParams,
    CompareHost,
    build_combiner_chain,
)
from repro.core.compare import (
    CompareConfig,
    CompareContext,
    CompareCore,
    CompareStats,
)
from repro.core.endpoint import (
    MODE_COMBINE,
    MODE_DUP,
    CombinerEndpoint,
    EndpointStats,
    branch_marker,
)
from repro.core.sampling import (
    DivergenceWatcher,
    SamplingEndpoint,
    deterministic_sample,
)
from repro.core.policy import (
    BitExactPolicy,
    ComparePolicy,
    HashPolicy,
    HeaderOnlyPolicy,
    MaskedPolicy,
    mask_src_mac_policy,
    strip_vlan_policy,
)
from repro.core.virtual import (
    VirtualEgress,
    VirtualIngress,
    provision_virtual_combiner,
)
from repro.core.votes import VoteBook, VoteEntry, VoteOutcome

__all__ = [
    "ALARM_BRANCH_QUARANTINED",
    "ALARM_BRANCH_READMITTED",
    "ALARM_DOS_SUSPECTED",
    "ALARM_MINORITY_DIVERGENCE",
    "ALARM_ROUTER_UNAVAILABLE",
    "ALARM_SINGLE_SOURCE_PACKET",
    "ALARM_SPOOFED_BRANCH",
    "Alarm",
    "AlarmSink",
    "CombinerChain",
    "CombinerChainParams",
    "CompareHost",
    "build_combiner_chain",
    "CompareConfig",
    "CompareContext",
    "CompareCore",
    "CompareStats",
    "MODE_COMBINE",
    "MODE_DUP",
    "CombinerEndpoint",
    "EndpointStats",
    "branch_marker",
    "DivergenceWatcher",
    "SamplingEndpoint",
    "deterministic_sample",
    "BitExactPolicy",
    "ComparePolicy",
    "HashPolicy",
    "HeaderOnlyPolicy",
    "MaskedPolicy",
    "mask_src_mac_policy",
    "strip_vlan_policy",
    "VirtualEgress",
    "VirtualIngress",
    "provision_virtual_combiner",
    "VoteBook",
    "VoteEntry",
    "VoteOutcome",
]
