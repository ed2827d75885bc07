"""Controller applications: learning switch, static routing, POX compare."""

from repro.apps.combiner_app import PoxStyleCompareApp
from repro.apps.learning import LearningSwitchApp
from repro.apps.static_routing import StaticMacRouter

__all__ = [
    "PoxStyleCompareApp",
    "LearningSwitchApp",
    "StaticMacRouter",
]
