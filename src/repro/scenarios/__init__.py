"""Ready-made evaluation scenarios (Sections V, VI, VII and IX)."""
