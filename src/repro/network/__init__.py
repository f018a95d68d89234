"""Network layer: links, channels, physical fabrics, and two backends.

Like every package here, this one imports none of its modules: the fast
backend (:mod:`repro.network.fast_backend`), fault injection
(:mod:`repro.network.fault_schedule`) and the flit-level detailed backend
(:mod:`repro.network.detailed.backend`) are imported by the runs that use
them.
"""
