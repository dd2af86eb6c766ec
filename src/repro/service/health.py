"""Restart policy for supervised shards: backoff + circuit breaker.

The supervisor never decides "should this shard come back, and when"
inline — it asks a :class:`RestartGovernor`, which is pure policy over
an injected clock and therefore unit-testable without a process in
sight.  The policy distinguishes two kinds of death:

* a shard that *made progress* (acknowledged at least one command
  since its last start) and then died — chaos kill, OOM, operator
  ``kill -9`` — restarts promptly, and the failure streak resets:
  productive work is evidence the code path is healthy;
* a shard that dies *without* ever acknowledging a command is
  crash-looping.  Each such death doubles the restart delay
  (deterministic exponential backoff, capped), and after
  ``max_failures`` consecutive no-progress deaths the circuit opens:
  no restarts are attempted for ``cooldown`` seconds, and the
  supervisor answers requests routed at the shard with
  ``service.overloaded`` carrying the remaining cooldown as
  ``retry_after_ms``.  After the cooldown the circuit is half-open:
  one restart attempt is allowed, and the first acknowledged command
  closes it again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: The line a shard prints on stdout at its first acknowledged session
#: command of each life
#: (:meth:`repro.service.server.RiotService.note_progress`): the
#: evidence of progress this policy judges a death by.
PROGRESS = "progress"


@dataclass(frozen=True)
class RestartDecision:
    """What to do about one shard death."""

    #: Seconds to wait before the restart attempt (0.0 = immediately).
    delay: float
    #: True when the circuit just opened: do not restart until
    #: :meth:`RestartGovernor.may_attempt` says so.
    circuit_opened: bool


class RestartGovernor:
    """Backoff + crash-loop circuit breaker for one shard.

    ``base_delay`` doubles per consecutive no-progress death up to
    ``max_delay``; ``max_failures`` consecutive no-progress deaths open
    the circuit for ``cooldown`` seconds.  ``clock`` is any zero-arg
    callable returning monotonic seconds (injectable for tests).
    """

    def __init__(
        self,
        *,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        max_failures: int = 5,
        cooldown: float = 15.0,
        clock=time.monotonic,
    ) -> None:
        if base_delay <= 0 or max_delay < base_delay:
            raise ValueError("need 0 < base_delay <= max_delay")
        if max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.max_failures = max_failures
        self.cooldown = cooldown
        self._clock = clock
        self.failures = 0  # consecutive no-progress deaths
        self._open_until: float | None = None

    # -- state the supervisor reads -----------------------------------------

    @property
    def circuit_open(self) -> bool:
        """True while restarts are forbidden (cooldown not yet over)."""
        if self._open_until is None:
            return False
        if self._clock() >= self._open_until:
            return False  # half-open: one attempt allowed
        return True

    def retry_after_ms(self) -> int:
        """Milliseconds until the circuit is worth probing again (the
        value shed responses carry); 0 when the circuit is closed."""
        if self._open_until is None:
            return 0
        remaining = self._open_until - self._clock()
        return max(0, int(remaining * 1000) + 1)

    # -- transitions ---------------------------------------------------------

    def record_death(self, *, progress: bool) -> RestartDecision:
        """One shard death; returns how to handle the restart.

        ``progress`` is whether the dead life acknowledged at least one
        command.
        """
        if progress:
            self.failures = 0
            self._open_until = None
            return RestartDecision(delay=self.base_delay, circuit_opened=False)
        self.failures += 1
        if self.failures >= self.max_failures:
            self._open_until = self._clock() + self.cooldown
            return RestartDecision(delay=self.cooldown, circuit_opened=True)
        delay = min(
            self.max_delay, self.base_delay * (2 ** (self.failures - 1))
        )
        return RestartDecision(delay=delay, circuit_opened=False)

    def record_progress(self) -> None:
        """An acknowledged command: the shard is healthy; close the
        circuit and reset the streak."""
        self.failures = 0
        self._open_until = None

    def may_attempt(self) -> bool:
        """Whether a restart attempt is currently allowed (circuit
        closed, or half-open after the cooldown)."""
        return not self.circuit_open
