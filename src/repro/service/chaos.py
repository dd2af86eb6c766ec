"""Deterministic fault injection for the service (``REPRO_CHAOS``).

Chaos is opt-in via one environment variable, inherited by every shard
subprocess, so a chaos run needs no special build and no code path
diverges when the variable is unset.  The value is a comma-separated
list of fault specs:

``kill-shard-after:N``
    SIGKILL the hosting process immediately *after* the N-th session
    command has been acknowledged (response written and drained).  The
    kill point is deterministic and sits exactly on the durability
    boundary the WAL claims to defend: entry N is fsynced and its
    response is on the wire, so salvage + replay after the crash must
    reproduce all N commands.  The counter is per process life, so a
    restarted shard dies again after N more — a standing storm, not a
    single event.

``drop-heartbeat-after:N``
    Answer the first N ``service.ping`` requests normally, then go
    silent (requests still served).  Exercises the supervisor's
    heartbeat-timeout detection path, as opposed to the process exit
    a kill is detected by.

``slow-worker:MS``
    Sleep MS milliseconds inside every session command, inflating
    queue depths to exercise backpressure and load shedding.

Multiple specs compose: ``kill-shard-after:50,slow-worker:5``.
"""

from __future__ import annotations

import json
import os
import signal
import threading


class ChaosError(ValueError):
    """The ``REPRO_CHAOS`` value does not parse."""


class ChaosPolicy:
    """Parsed fault specs plus the counters that drive them."""

    def __init__(
        self,
        *,
        kill_after: int | None = None,
        drop_heartbeat_after: int | None = None,
        slow_worker_ms: int = 0,
    ) -> None:
        self.kill_after = kill_after
        self.drop_heartbeat_after = drop_heartbeat_after
        self.slow_worker_ms = slow_worker_ms
        self._acked = 0
        self._pings = 0
        self._lock = threading.Lock()

    # -- parsing -------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, arg = part.partition(":")
            if name == "kill-shard-after":
                kwargs["kill_after"] = _int_arg(part, arg, minimum=1)
            elif name == "drop-heartbeat-after":
                kwargs["drop_heartbeat_after"] = _int_arg(part, arg, minimum=0)
            elif name == "slow-worker":
                kwargs["slow_worker_ms"] = _int_arg(part, arg, minimum=1)
            else:
                raise ChaosError(
                    f"unknown chaos spec {part!r} (know kill-shard-after:N, "
                    "drop-heartbeat-after:N, slow-worker:MS)"
                )
        return cls(**kwargs)

    @classmethod
    def from_env(cls, environ=None) -> "ChaosPolicy | None":
        """The policy ``REPRO_CHAOS`` names, or ``None`` when unset."""
        value = (environ if environ is not None else os.environ).get(
            "REPRO_CHAOS", ""
        ).strip()
        if not value:
            return None
        return cls.parse(value)

    # -- hooks the server calls ----------------------------------------------

    def after_response(self, request_line: bytes, response: str) -> None:
        """Called once per request, after its response has been written
        and drained — the acknowledgement point.  May not return."""
        if self.kill_after is None:
            return
        if '"ok":true' not in response:
            return
        try:
            method = json.loads(request_line).get("method", "")
        except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
            return
        if not isinstance(method, str) or method.startswith("service."):
            return  # only session commands count toward the kill point
        with self._lock:
            self._acked += 1
            fire = self._acked == self.kill_after
        if fire:
            os.kill(os.getpid(), signal.SIGKILL)

    def drop_ping(self) -> bool:
        """Whether to swallow this ``service.ping`` without answering."""
        if self.drop_heartbeat_after is None:
            return False
        with self._lock:
            self._pings += 1
            return self._pings > self.drop_heartbeat_after

    def command_delay(self) -> float:
        """Seconds to sleep inside each session command."""
        return self.slow_worker_ms / 1000.0

    def describe(self) -> str:
        parts = []
        if self.kill_after is not None:
            parts.append(f"kill-shard-after:{self.kill_after}")
        if self.drop_heartbeat_after is not None:
            parts.append(f"drop-heartbeat-after:{self.drop_heartbeat_after}")
        if self.slow_worker_ms:
            parts.append(f"slow-worker:{self.slow_worker_ms}")
        return ",".join(parts) or "(none)"


def _int_arg(part: str, arg: str, *, minimum: int) -> int:
    try:
        value = int(arg)
    except ValueError:
        raise ChaosError(f"chaos spec {part!r} needs an integer argument") from None
    if value < minimum:
        raise ChaosError(f"chaos spec {part!r}: argument must be >= {minimum}")
    return value
