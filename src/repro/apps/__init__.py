"""Controller applications: learning switch, static routing, POX compare."""
