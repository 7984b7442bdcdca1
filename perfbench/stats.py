"""The tail rule of the benchmark report."""

from __future__ import annotations

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it.

    3,610 samples give p99 (36 beyond), 40 give p75 (10 beyond).  Raises
    ValueError below 20 samples, where not even the median qualifies.
    """
    for p in TAIL_LADDER:
        # Rounded so that 40 * (1 - 0.75) counts as exactly ten.
        if round(n * (100.0 - p) / 100.0, 9) >= 10:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile")
