"""Bootstrap confidence intervals for iteration-time statistics.

Figure 1d's headline is a *median* speedup; a single median from a finite
run deserves an uncertainty estimate. These helpers bootstrap medians and
median-ratios (fair over unfair) with a seeded resampler, so benchmark
reports can state e.g. "median speedup 1.26× (95% CI 1.24–1.28)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import SimulationError

#: Resamples whose medians one step takes. Only the index matrix spans
#: every resample; the ranks and their per-row counts exist for one
#: block of rows at a time.
MEDIAN_BLOCK_ROWS = 256


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a two-sided confidence interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def __str__(self) -> str:
        return (
            f"{self.estimate:.3f} "
            f"[{self.low:.3f}, {self.high:.3f}] "
            f"@{self.confidence:.0%}"
        )

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def _validate(samples: Sequence[float], n_resamples: int,
              confidence: float) -> np.ndarray:
    """The samples as a float array.

    Raises:
        SimulationError: on no samples, a NaN or infinite sample (a
            median counted from ranks could not give ``np.median``'s NaN
            for a row that draws a NaN), fewer than 10 resamples, or a
            confidence outside (0.5, 1).
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise SimulationError("no samples to bootstrap")
    if not np.isfinite(data).all():
        raise SimulationError("samples to bootstrap must be finite")
    if n_resamples < 10:
        raise SimulationError("n_resamples must be >= 10")
    if not 0.5 < confidence < 1.0:
        raise SimulationError("confidence must be in (0.5, 1)")
    return data


def _row_medians(ranks: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """The median of each row of ``ranks``, a block of resamples given
    as ranks into the sorted samples ``ranked`` (changed in place).

    One ``bincount`` counts how often each row drew each rank, and a
    running sum along the row turns the counts into the number of draws
    at or below each rank. A row's k-th smallest draw is the sorted
    sample at the first rank whose running sum passes k, so the middle
    one or two come out without sorting a row, and their mean is taken
    as ``np.median`` takes it: the same bits.
    """
    rows, n = ranks.shape
    ranks += np.arange(0, rows * n, n)[:, None]
    counts = np.bincount(ranks.ravel(), minlength=rows * n)
    # The in-place running sum copies its input; let that copy take the
    # ranks' place instead of adding a third block.
    del ranks
    counts = counts.reshape(rows, n)
    np.cumsum(counts, axis=1, out=counts)
    lower, upper = (n - 1) // 2, n // 2
    middle = ranked[(counts <= lower).sum(axis=1)]
    if upper == lower:
        return middle
    return np.mean([middle, ranked[(counts <= upper).sum(axis=1)]], axis=0)


def _resample_medians(
    data: np.ndarray, rng: np.random.Generator, n_resamples: int
) -> np.ndarray:
    """Medians of ``n_resamples`` resamples of ``data`` with replacement.

    The indices are one ``rng.integers`` draw of the whole
    ``(n_resamples, data.size)`` matrix. Each sample's rank is its
    position in a stable sort of ``data``, and the medians are counted
    from ranks (:func:`_row_medians`) one block of
    :data:`MEDIAN_BLOCK_ROWS` rows at a time, so a block's temporaries
    are gone before the next block's exist.
    """
    n = data.size
    indices = rng.integers(0, n, size=(n_resamples, n))
    order = np.argsort(data, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    ranked = data[order]
    medians = np.empty(n_resamples)
    for start in range(0, n_resamples, MEDIAN_BLOCK_ROWS):
        stop = start + MEDIAN_BLOCK_ROWS
        medians[start:stop] = _row_medians(rank[indices[start:stop]], ranked)
    return medians


def bootstrap_median(
    samples: Sequence[float],
    n_resamples: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile-bootstrap CI for the median of ``samples``."""
    data = _validate(samples, n_resamples, confidence)
    medians = _resample_medians(
        data, np.random.default_rng(seed), n_resamples
    )
    alpha = (1.0 - confidence) / 2.0
    return ConfidenceInterval(
        estimate=float(np.median(data)),
        low=float(np.quantile(medians, alpha)),
        high=float(np.quantile(medians, 1.0 - alpha)),
        confidence=confidence,
    )


def bootstrap_median_ratio(
    numerator: Sequence[float],
    denominator: Sequence[float],
    n_resamples: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> ConfidenceInterval:
    """CI for ``median(numerator) / median(denominator)``.

    The two sample sets are resampled independently (they come from
    independent runs — fair and unfair scenarios).
    """
    num = _validate(numerator, n_resamples, confidence)
    den = _validate(denominator, n_resamples, confidence)
    rng = np.random.default_rng(seed)
    num_medians = _resample_medians(num, rng, n_resamples)
    den_medians = _resample_medians(den, rng, n_resamples)
    if (den_medians <= 0).any() or np.median(den) <= 0:
        raise SimulationError("denominator medians must be positive")
    ratios = num_medians / den_medians
    alpha = (1.0 - confidence) / 2.0
    return ConfidenceInterval(
        estimate=float(np.median(num) / np.median(den)),
        low=float(np.quantile(ratios, alpha)),
        high=float(np.quantile(ratios, 1.0 - alpha)),
        confidence=confidence,
    )
