"""The typed command surface: one API, four transports.

Riot's paper describes a single-seat interactive editor; its commands
here are frozen request dataclasses with typed results and stable
machine-readable error codes, so the same entry points serve:

* the textual interface (:mod:`repro.core.textual`) — a parse/format
  shell over this layer;
* REPLAY (:mod:`repro.core.replay`) — journal entries are decoded into
  the same request types before execution;
* the fuzz runner's editor-session oracle;
* the concurrent socket service (:mod:`repro.service`).

Modules:

* :mod:`repro.api.codec` — strict dataclass <-> JSON conversion, one
  compiled shape per wire type;
* :mod:`repro.api.types` — the request/result dataclasses;
* :mod:`repro.api.registry` — name -> (request, result, handler) table;
* :mod:`repro.api.session` — one editor + store + defaults, and
  ``dispatch``;
* :mod:`repro.api.wire` — protocol-version-1 envelopes for the
  newline-delimited JSON wire format.
"""
