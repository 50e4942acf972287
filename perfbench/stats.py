"""The latency tail rule and failure counting."""

from __future__ import annotations

from dataclasses import dataclass, field

#: candidate tail percentiles, highest first
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: list[float],
                    beyond: int = 10) -> tuple[float, float, int] | None:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, sample count)``, or ``None`` when even
    the median has fewer than ``beyond`` samples above it.  The
    percentile's value is the nearest-rank one, so exactly
    ``n - ceil(n * p / 100)`` samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in PERCENTILES:
        rank = max(1, -(-n * round(pct * 10) // 1000))   # exact ceil
        if n - rank >= beyond:
            return pct, ordered[rank - 1], n
    return None


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons.

    A failure is a non-zero exit, a non-200 response, or an output
    check that does not match; each attempt counts at most once, however
    many of its checks fail.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, *problems: str | None) -> bool:
        """Count one attempt; ``problems`` holds one entry per check,
        ``None`` for a check that passed.  Returns whether it passed."""
        self.attempted += 1
        found = [p for p in problems if p]
        if found:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(found))
        return not found

    def fail(self, reason: str) -> None:
        """Count a failure of an attempt already recorded as passing."""
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
