"""Simulation-as-a-service: the hardened ``astra-repro serve`` daemon.

The package splits along failure domains so each edge is testable in
isolation (docs/SERVICE.md):

* :mod:`repro.service.schema` — the strict request schema; everything a
  client can get wrong becomes a structured 400 before simulation.
* :mod:`repro.service.queue` — bounded priority admission with
  non-blocking backpressure (429 + Retry-After).
* :mod:`repro.service.jobs` — the job registry and in-flight
  deduplication by RunCache content key.
* :mod:`repro.service.progress` — watchdog progress-vector snapshots
  streamed to clients without perturbing the simulation.
* :mod:`repro.service.daemon` — the HTTP front end, supervised
  execution, journal-backed crash recovery, and graceful drain.
"""
