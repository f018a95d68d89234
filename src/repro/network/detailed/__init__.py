"""Detailed flit-level network backend (Garnet-like VC/credit model)."""
