"""Per-figure experiment runners regenerating the paper's evaluation.

The shared runners live in :mod:`repro.harness.runners` and the bandwidth
test in :mod:`repro.harness.bandwidth_test`.  The per-figure modules
(``fig09``-``fig18``; Figs. 15 and 16 read ``fig14``'s runs) are imported
as submodules (``from repro.harness import fig09``), so running one
collective does not load every figure.
"""
