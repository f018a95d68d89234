"""Workload layer: layers, models, parallelism, parser, training loop.

Every workload runs on one dependency-graph executor,
:mod:`repro.workload.graph`; :class:`TrainingLoop` builds its graph from a
model and Table I.  Pipeline parallelism, the other graph builder, lives
in :mod:`repro.workload.pipeline`, imported only by the runs that use it.
"""
