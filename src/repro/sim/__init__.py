"""Discrete-event simulation kernel for the NetCo reproduction."""

# The one name frozen ``bench/`` imports from the package (DESIGN §6).
from repro.sim.trace import TraceBus
