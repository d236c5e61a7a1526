"""Bounded exponential backoff: the one retry policy of the suite.

The msr device plane (:class:`~repro.core.perfctr.counters
.CounterProgrammer`, transient ``EAGAIN``/``EIO``) and the network
plane (the likwid-server clients) both retry under a frozen
:class:`RetryPolicy`.  It lives below ``core`` and ``server`` so
neither imports the other for it.  Server clients add *seeded*
jitter, one ``random.Random`` per client id: a retry storm across
clients decorrelates while each client's schedule stays exactly
reproducible; the msr plane retries without jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ServerError

#: Exceptions that always indicate a transport-level failure the
#: client may retry against a fresh connection.  ``TimeoutError``
#: covers both socket timeouts and ``asyncio.wait_for`` expiry on a
#: single attempt (the per-*call* deadline is enforced separately).
TRANSPORT_ERRORS = (ConnectionError, OSError, EOFError, TimeoutError)


def retryable(exc: BaseException) -> bool:
    """Whether repeating the request against a (re)connected server
    can plausibly succeed.

    * :class:`ServerError` carries its own ``retryable`` flag — the
      server decided (``shutting-down`` yes, ``unknown-node`` no).
    * Transport errors (reset, refused, EOF, timeout) are always
      retryable: the reply was simply never observed.
    """
    if isinstance(exc, ServerError):
        return exc.retryable
    return isinstance(exc, TRANSPORT_ERRORS)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with optional seeded jitter.

    ``max_attempts`` counts the first try.  Delays follow
    ``min(cap, base * 2**retry) * (1 + jitter * U[0,1))``.  The
    defaults are the server clients'; :data:`MSR_RETRIES` is the msr
    plane's."""

    max_attempts: int = 6
    backoff_base: float = 0.0005
    backoff_cap: float = 0.05
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0.0 or self.backoff_cap < 0.0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def delay(self, retry: int,
              rng: random.Random | None = None) -> float:
        """Seconds to sleep before retry number *retry* (0-based).

        Draws from *rng* (default: the module-level generator) only
        when ``jitter > 0``; a jitter-free policy is pure."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** retry))
        if self.jitter > 0.0:
            return base * (1.0 + self.jitter * (rng or random).random())
        return base


#: The msr plane's default: the worst-case stall per operation stays
#: under ~3 ms.  Non-transient faults are never retried.
MSR_RETRIES = RetryPolicy(max_attempts=8, backoff_base=0.0001,
                          backoff_cap=0.002, jitter=0.0)

#: Backoff-free msr retries for simulated soaks (the agent fleet and
#: the server's node sessions): sleeping between thousands of retries
#: would only slow the simulation down without changing any outcome.
SOAK_RETRIES = RetryPolicy(max_attempts=8, backoff_base=0.0,
                           backoff_cap=0.0, jitter=0.0)

#: Retries disabled: a single attempt (fail-fast clients).
NO_RETRY = RetryPolicy(max_attempts=1)
