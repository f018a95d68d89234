"""Resilience tooling for long faulty runs (docs/RESILIENCE.md).

Two cooperating pieces:

* :mod:`repro.resilience.watchdog` — stall detection on the event queue
  with diagnostic bundles.
* :mod:`repro.resilience.chaos` — the ``astra-repro chaos`` fuzzing
  harness: randomized fault schedules and transport configs, every run
  classified, silent hangs forbidden.

The watchdog is the :attr:`repro.events.engine.EventQueue.watcher`
observer, which fires after each executed event and never schedules
events itself — so enabling it cannot change a single simulated cycle
(asserted by ``benchmarks/bench_resilience_overhead.py``).
"""
