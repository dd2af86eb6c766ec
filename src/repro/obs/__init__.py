"""Observability: tracing, metrics, and the performance journal.

The REPLAY journal records *what* a session did; this package records
*how* — where the time went inside ABUT/ROUTE/STRETCH, how often the
river router spilled into extra channels, whether a verify run hit its
cache.  Dependency-free, and built around two rules:

* **Off means off.**  With tracing disabled (the default) every
  instrumented call site dispatches through a shared no-op span, so
  the hot paths pay a predicate check and nothing else.
* **Deterministic under a fixed clock.**  All timestamps come from the
  injectable clock in :mod:`repro.obs.clock`; with a
  :class:`~repro.obs.clock.FixedClock` installed, two identical runs
  export byte-identical traces and metrics — which is how the golden
  tests pin the format and how fuzz/replay keep their determinism
  guarantee.

Modules:

* :mod:`repro.obs.clock` — injectable wall/CPU clock.
* :mod:`repro.obs.trace` — hierarchical spans (context manager and
  decorator), thread-safe ids, module-level on/off switch.
* :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms.
* :mod:`repro.obs.export` — JSONL event export and Chrome trace-event
  format (opens directly in Perfetto / ``chrome://tracing``).
"""
