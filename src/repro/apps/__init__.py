"""Controller applications: learning switch and POX compare."""
