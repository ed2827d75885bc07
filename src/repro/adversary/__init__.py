"""Adversarial router models for the NetCo threat model."""
