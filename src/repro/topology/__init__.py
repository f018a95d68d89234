"""Logical topologies, dimensions, and logical-to-physical mapping."""
