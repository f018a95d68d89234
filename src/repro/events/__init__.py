"""Discrete-event simulation engine (the paper's event-driven execution model)."""
