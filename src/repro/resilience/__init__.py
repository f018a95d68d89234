"""Resilience tooling for long faulty runs (docs/RESILIENCE.md).

Two cooperating pieces:

* :mod:`repro.resilience.watchdog` — stall detection on the event queue
  with diagnostic bundles.
* :mod:`repro.resilience.chaos` — the ``astra-repro chaos`` fuzzing
  harness: randomized fault schedules and transport configs, every run
  classified, silent hangs forbidden.

The watchdog watches the event queue
(:meth:`repro.events.engine.EventQueue.watch`): it is called before each
event and never schedules events itself — so enabling it cannot change a
single simulated cycle
(asserted by ``benchmarks/bench_resilience_overhead.py``).
"""
