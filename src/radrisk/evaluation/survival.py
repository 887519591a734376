"""Kaplan-Meier product-limit estimation and the two-group log-rank test.

Times are in days. Confidence bands use the Greenwood variance on the
log(-log) scale (95%, clamped at the 0/1 boundaries). The median is the
smallest event time where the survival estimate drops to <= 0.5; curves that
never reach 0.5 carry ``median = None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError

DAYS_PER_MONTH = 30.44
_Z95 = 1.959963984540054


def days_to_months(days: float) -> float:
    return days / DAYS_PER_MONTH


@dataclass(frozen=True)
class SurvivalCurve:
    times: np.ndarray  # distinct event times, ascending
    surv: np.ndarray  # S(t) after each event time
    at_risk: np.ndarray  # n at risk just before each event time
    events: np.ndarray  # events at each event time
    ci_low: np.ndarray
    ci_high: np.ndarray
    censor_times: np.ndarray  # censoring times (plot ticks)
    median: float | None
    n: int

    def survival_at(self, t: float) -> float:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return 1.0 if idx < 0 else float(self.surv[idx])


def _check_times(times: np.ndarray) -> None:
    """Survival times are finite and not negative; a NaN compares False with everything."""
    if not np.all(np.isfinite(times)):
        raise DataError("non-finite survival time")
    if np.any(times < 0):
        raise DataError("negative survival time")


def kaplan_meier(times, events) -> SurvivalCurve:
    """Product-limit estimate from durations and event flags (False = censored)."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if times.shape != events.shape or times.ndim != 1 or times.size == 0:
        raise DataError(f"times {times.shape} and events {events.shape} disagree or are empty")
    _check_times(times)

    n = times.size
    # each event time's tie group starts at its first index in the stably sorted times; the grid
    # takes the time found there, so a tie of 0.0 and -0.0 keeps the member that comes first
    t = times[np.argsort(times, kind="stable")]
    event_times, d = np.unique(times[events], return_counts=True)
    start = np.searchsorted(t, event_times)
    grid = t[start]
    at_risk = n - start
    surv = np.cumprod(1.0 - d / at_risk)
    # np.cumsum adds left to right (np.sum adds pairwise), so each Greenwood sum is a running total
    greenwood = np.cumsum(np.divide(d, at_risk * (at_risk - d), out=np.zeros(d.size), where=at_risk > d))

    ci_low = np.zeros_like(surv)
    ci_high = np.ones_like(surv)
    # the band stays in scalar math: numpy's SIMD exp/log/pow can differ from libm in the last bit.
    # Every factor 1 - d/at_risk is below 1, as d >= 1 and at_risk <= n < 2**53, so every s_k is too.
    for k, s_k in enumerate(surv):
        if s_k <= 0.0:
            ci_low[k] = ci_high[k] = 0.0
        else:
            se_ll = math.sqrt(greenwood[k]) / abs(math.log(s_k))
            ci_low[k] = s_k ** math.exp(_Z95 * se_ll)
            ci_high[k] = s_k ** math.exp(-_Z95 * se_ll)

    median = None
    below = np.nonzero(surv <= 0.5)[0]
    if below.size:
        median = float(grid[below[0]])

    return SurvivalCurve(
        times=grid,
        surv=surv,
        at_risk=at_risk,
        events=d,
        ci_low=ci_low,
        ci_high=ci_high,
        censor_times=np.sort(times[~events]),
        median=median,
        n=n,
    )


@dataclass(frozen=True)
class LogRankResult:
    chi2: float
    p: float
    observed_a: float
    expected_a: float


def _risk_table(times, events, grid):
    """How many of ``times`` are at risk (>= t) at each time t of ``grid``, and how many events fall on t."""
    dead = np.sort(times[events])
    at_risk = times.size - np.searchsorted(np.sort(times), grid)
    return at_risk, np.searchsorted(dead, grid, side="right") - np.searchsorted(dead, grid)


def log_rank(times_a, events_a, times_b, events_b) -> LogRankResult:
    """Two-group log-rank statistic; p from chi-square with 1 df."""
    ta = np.asarray(times_a, dtype=np.float64)
    ea = np.asarray(events_a, dtype=bool)
    tb = np.asarray(times_b, dtype=np.float64)
    eb = np.asarray(events_b, dtype=bool)
    if ta.size == 0 or tb.size == 0:
        raise DataError("log-rank needs both groups nonempty")
    _check_times(ta)
    _check_times(tb)
    if not (ea.any() or eb.any()):
        raise DataError("log-rank needs at least one event")

    event_times = np.unique(np.concatenate([ta[ea], tb[eb]]))
    n_a, d_a = _risk_table(ta, ea, event_times)
    n_b, d_b = _risk_table(tb, eb, event_times)
    n_t = n_a + n_b
    d = d_a + d_b
    # running totals over the event times: np.cumsum adds left to right, np.sum pairwise
    observed = float(d_a.sum())
    expected = float(np.cumsum(d * n_a / n_t)[-1])
    spread = d * (n_a / n_t) * (n_b / n_t) * (n_t - d)
    variance = float(np.cumsum(np.divide(spread, n_t - 1, out=np.zeros(d.size), where=n_t > 1))[-1])

    if variance == 0.0:
        return LogRankResult(0.0, 1.0, observed, expected)
    chi2 = (observed - expected) ** 2 / variance
    p = math.erfc(math.sqrt(chi2 / 2.0))
    return LogRankResult(chi2, p, observed, expected)
