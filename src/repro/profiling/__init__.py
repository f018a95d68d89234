"""Perf-trajectory tooling: wall-clock phase timing and events/sec.

See docs/PERFORMANCE.md.  The CLI's global ``--profile`` flag prints a
:class:`~repro.profiling.profiler.RunProfile` after any run;
``benchmarks/bench_hot_path.py`` writes the canonical macro-benchmark as
``BENCH_PR<k>.json`` and CI fails on a >20% events/sec regression versus
the newest committed baseline
(:func:`~repro.profiling.profiler.find_newest_bench`).
"""
