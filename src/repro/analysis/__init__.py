"""Reporting and analysis helpers for simulation results."""
