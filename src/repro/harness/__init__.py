"""Per-figure experiment runners regenerating the paper's evaluation.

The shared runners live in :mod:`repro.harness.runners`: Figs. 9-12 and
the bandwidth test (:mod:`repro.harness.bandwidth_test`) are each one
:func:`~repro.harness.runners.run_sweep` returning a
:class:`~repro.harness.runners.Sweep`.  The per-figure modules
(``fig09``-``fig18``; Figs. 15 and 16 read ``fig14``'s runs) are imported
as submodules (``from repro.harness import fig09``), so running one
collective does not load every figure.
"""
