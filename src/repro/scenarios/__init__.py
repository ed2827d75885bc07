"""Ready-made evaluation scenarios (Sections V, VI, VII and IX)."""

from repro.scenarios.datacenter import (
    BENIGN_PATH,
    CaseStudyResult,
    ScreeningReport,
    build_pod_slice,
)
from repro.scenarios.ctrlplane import (
    CtrlParams,
    CtrlTestbed,
    build_ctrl_testbed,
)
from repro.scenarios.registry import (
    ScenarioSpec,
    compare_scenarios,
    figure_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
    table1_scenarios,
)
from repro.scenarios.testbed import (
    Testbed,
    TestbedParams,
    VARIANTS,
    build_testbed,
)
from repro.scenarios.virtualized import (
    VirtualizedScenario,
    build_virtualized_scenario,
)

__all__ = [
    "BENIGN_PATH",
    "CaseStudyResult",
    "CtrlParams",
    "CtrlTestbed",
    "ScreeningReport",
    "build_pod_slice",
    "ScenarioSpec",
    "compare_scenarios",
    "figure_scenarios",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "table1_scenarios",
    "Testbed",
    "TestbedParams",
    "VARIANTS",
    "build_ctrl_testbed",
    "build_testbed",
    "VirtualizedScenario",
    "build_virtualized_scenario",
]
