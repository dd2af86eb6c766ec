"""The concurrent multi-session Riot service.

The paper's tool is single-seat: one user, one editor, one REPLAY
file.  This package lifts the same typed command surface
(:mod:`repro.api`) onto a socket so many independent sessions run
concurrently — each with its own editor, cell library, write-ahead
journal, and trace/metrics scope.  The wire protocol is version 1 of
:mod:`repro.api.wire`: newline-delimited JSON, no dependencies,
talkable with ``nc``.

Two deployment shapes, same wire format, one socket front end
(:mod:`repro.service.frontend`), both started by
:mod:`repro.service.serve`:

* single process — :mod:`repro.service.server`
  (``python -m repro serve``);
* supervised shards — :mod:`repro.service.shard` worker subprocesses,
  each the same server, under the :mod:`repro.service.supervisor`
  control plane (``python -m repro serve --shards N``): consistent-
  hash routing that clients follow straight to the owning shard,
  crash isolation, admission control and WAL-backed restart recovery.

Plus :mod:`repro.service.client` (a small blocking client that follows
routes, with retry/backoff), :mod:`repro.service.control` (the
``service.*`` control commands), :mod:`repro.service.health` (restart
backoff and the crash-loop circuit breaker) and
:mod:`repro.service.chaos` (deterministic fault injection via
``REPRO_CHAOS``).
"""
