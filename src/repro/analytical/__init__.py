"""Closed-form collective cost models for analysis and cross-checks."""
