"""Fitting and turnover statistics for simulated or observed sales data.

Covers the three measurement tasks the simulator feeds: maximum-likelihood
power-law exponents for cumulative sales, turnover of top-y best-seller
lists, and the square-root rule of thumb linking turnover to the innovation
fraction (z ~ y*sqrt(mu)), including its inversion for calibrating mu from
an observed chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import InsufficientDataError


@dataclass
class PowerLawFit:
    alpha: float
    s_min: float
    n_samples: int
    std_error: float


@dataclass
class TurnoverStats:
    z_per_period: list[int]
    z_bar: float


@dataclass
class LogLogFit:
    slope: float
    intercept: float
    r_squared: float


def fit_alpha(counts: Mapping[float, int], s_min: float = 1) -> PowerLawFit:
    """ML estimate of the exponent alpha for P(s) ~ s^-alpha, s >= s_min.

    ``counts`` maps each distinct sample value to the number of times it
    occurs, as ``chartdata.read_sales_column`` reads a sales file (a
    ``collections.Counter`` of a list of samples will do).

    Uses the continuous-approximation estimator
    ``alpha = 1 + n / sum(ln(s_i / s_min))`` over the samples >= s_min,
    with standard error ``(alpha - 1) / sqrt(n)``. Sales counts are treated
    as continuous values; for heavy-tailed data spanning several decades the
    approximation error is small compared to the sampling error.

    ``math.log`` is taken once per distinct value and count x log summed
    with ``math.fsum``, which rounds once: the sum is the same in any order
    of the values, and its bits do not depend on numpy's choice of kernel
    for the CPU.
    """
    if not 1 <= s_min < math.inf:
        raise ValueError(f"s_min must be finite and >= 1, got {s_min}")
    try:
        log_sum = math.fsum(count * math.log(float(v) / s_min) for v, count in counts.items() if v >= s_min)
    except OverflowError:
        raise ValueError("samples must not exceed the largest float") from None
    n = sum(count for v, count in counts.items() if v >= s_min)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples >= s_min={s_min}, got {n}")
    if log_sum == 0.0:
        raise InsufficientDataError("all samples equal s_min; exponent is undefined")
    alpha = 1.0 + n / log_sum
    return PowerLawFit(alpha=alpha, s_min=s_min, n_samples=n, std_error=(alpha - 1.0) / math.sqrt(n))


def turnover(lists: Iterable[list[int]]) -> TurnoverStats:
    """Per-period count of list entrants, z_t = |top(t) \\ top(t-1)|, over
    ranked lists in period order: a list, or a one-shot iterable such as
    ``model.top_lists``, read once and not kept.

    Raises InsufficientDataError for fewer than 2 periods.
    """
    periods = iter(lists)
    prev = set(next(periods, ()))
    z = []
    for current_list in periods:
        current = set(current_list)
        z.append(len(current - prev))
        prev = current
    if not z:
        raise InsufficientDataError("turnover needs at least 2 recorded periods")
    return TurnoverStats(z_per_period=z, z_bar=sum(z) / len(z))


def expected_turnover(y: int, mu: float) -> float:
    """Rule-of-thumb turnover for a top-y list: y * sqrt(mu) items/period."""
    if y < 1:
        raise ValueError(f"y must be >= 1, got {y}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be within [0, 1], got {mu}")
    return y * math.sqrt(mu)


def fit_turnover_exponent(points: Iterable[tuple[float, float]]) -> LogLogFit:
    """OLS fit of ln(z_bar) against ln(mu) over (mu, z_bar) pairs."""
    pts = [(float(m), float(z)) for m, z in points]
    if len(pts) < 3:
        raise InsufficientDataError(f"need at least 3 points, got {len(pts)}")
    if any(m <= 0.0 or z <= 0.0 for m, z in pts):
        raise ValueError("all mu and z_bar values must be positive for a log-log fit")
    ln_mu = np.log([m for m, _ in pts])
    ln_z = np.log([z for _, z in pts])
    if np.ptp(ln_mu) == 0.0:
        raise ValueError("mu values are all identical; slope is undefined")
    slope, intercept = np.polyfit(ln_mu, ln_z, 1)
    residual = ln_z - (slope * ln_mu + intercept)
    ss_tot = float(np.sum((ln_z - ln_z.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residual**2)) / ss_tot
    r_squared = min(1.0, max(0.0, r_squared))
    return LogLogFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


def calibrate_mu(fractional_turnover: float) -> float:
    """Innovation fraction implied by an observed turnover fraction z/y.

    Inverts z ~ y*sqrt(mu) to mu = (z/y)^2. Observed fractions are
    decimal-reported quantities, so the square is taken of the decimal value
    that ``repr`` prints, exactly, with a single rounding to float:
    calibrate_mu(0.056) returns exactly 0.003136 rather than accumulating
    two binary rounding errors.
    """
    f = float(fractional_turnover)
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fractional turnover must be within [0, 1], got {f}")
    # repr(f) is m * 10**e for the integer m of its digits, with e < 0 since
    # f <= 1 prints as 1.0; so the square is the ratio of two ints, and int / int
    # is correctly rounded. No decimal: importing it costs about 0.3 MB of RSS.
    digits, _, exponent = repr(f).partition("e")
    whole, _, fraction = digits.partition(".")
    m = int(whole + fraction)
    e = int(exponent or 0) - len(fraction)
    return m * m / 100**-e
