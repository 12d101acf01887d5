"""Retry policies: bounded attempts, exponential backoff, stable jitter.

A :class:`RetryPolicy` describes how stubbornly the executors re-run a
failing unit: how many attempts it gets, how long to back off between
them, and the per-unit wall-clock budget.  Backoff jitter is
*deterministic* — derived by hashing the spec digest and attempt number
rather than drawn from a RNG — so a retried sweep schedules identically
on every machine and every re-run, which the fault-injection tests rely
on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["RetryPolicy", "stable_fraction"]


def stable_fraction(key: str) -> float:
    """Map ``key`` onto [0, 1) deterministically (SHA-256, no RNG state)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """How a failing unit is retried and how long one attempt may run.

    ``timeout`` is a per-attempt wall-clock budget in seconds (None = no
    limit).  The lease executor enforces it preemptively by killing the
    worker node that holds the attempt; the serial executor, which
    cannot interrupt in-process work, detects it after the attempt
    finishes.
    """

    max_attempts: int = 3
    base_delay: float = 0.25
    backoff: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.backoff < 1:
            raise ValueError("backoff must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    def delay_for(self, failed_attempt: int, key: str) -> float:
        """Seconds to back off after ``failed_attempt`` (1-based) failed.

        Exponential in the attempt number, capped at ``max_delay``, then
        spread by ±``jitter`` using a stable hash of ``(key, attempt)``
        so concurrent retries de-synchronize without nondeterminism.

        ``key`` is required and callers pass the spec digest: jitter
        seeded per ``(digest, attempt)`` gives every unit its own
        schedule that is *identical on every node*, so a fleet retrying
        the same sweep neither thunders in lockstep (distinct digests
        spread out) nor drifts between runs (re-running a digest
        replays its exact backoff).  A process-seeded default key would
        collide every unit retried by one process onto one schedule and
        desynchronize schedules *across* nodes — the opposite of both
        guarantees.
        """
        raw = min(self.base_delay * self.backoff ** (failed_attempt - 1),
                  self.max_delay)
        if raw <= 0 or self.jitter == 0:
            return raw
        spread = 2.0 * stable_fraction(f"{key}:{failed_attempt}") - 1.0
        return max(0.0, raw * (1.0 + self.jitter * spread))
