"""Distance-to-normal estimators, power-law variance fits and closed-form
concentration bounds.

The Wasserstein-1 distance to N(0,1) is integrated exactly piecewise between
order statistics using the Gaussian antiderivative H(t) = t*Phi(t) + phi(t)
and closed-form tails; no sample-vs-sample transport enters.  Phi and its
inverse come from scipy.special (erfc-based, accurate to ~1e-16), imported
where they are called so that ``import pairfunc`` does not load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampleSummary",
    "ScalingFit",
    "summarize_sample",
    "is_degenerate",
    "DEGENERATE_RELATIVE_VARIANCE",
    "wasserstein1_to_standard_normal",
    "kolmogorov_to_standard_normal",
    "variance_scaling_fit",
    "binomial_lower_tail_bound",
    "poisson_upper_tail_bound",
    "loglinear_fit",
    "ConcentrationReport",
    "concentration_check_G",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.square(t)) / _SQRT2PI


def _Phi(t: np.ndarray) -> np.ndarray:
    from scipy.special import ndtr

    return ndtr(t)


def _H(t: np.ndarray) -> np.ndarray:
    """Antiderivative of Phi."""
    return t * _Phi(t) + _phi(t)


@dataclass(frozen=True)
class SampleSummary:
    """Replication summary with a self-standardized sorted sample.

    Standardization uses the sample's own mean and unbiased variance, since
    the population moments are unknown; the choice is recorded in experiment
    metadata.
    """

    count: int
    mean: float
    variance: float
    standardized: np.ndarray

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("sample variance must be positive")
        # The rounded mean is off by up to about M eps |mean|.  That shifts the
        # standardized mean by M eps |mean| / sd and their variance by about
        # its square, so the tolerance scales with |mean| / sd, and is 1e-12
        # for a well-conditioned sample.
        cond = abs(self.mean) / math.sqrt(self.variance)
        tol = max(1e-12, self.count * np.finfo(float).eps * cond)
        z = self.standardized
        if abs(float(z.mean())) > tol or abs(float(z.var(ddof=1)) - 1.0) > max(1e-12, 2 * tol**2):
            raise ValueError("standardized sample must have mean 0 and variance 1")


# A sample whose variance is at most this fraction of its largest squared
# value is degenerate: its values agree to within about 1024 ulps, a spread
# that rounding makes (the same terms summed in another order), not sampling.
# Its standardized values would describe that rounding, so it is not
# summarized.
DEGENERATE_RELATIVE_VARIANCE = (1024 * np.finfo(float).eps) ** 2


def is_degenerate(values) -> bool:
    """True when the sample variance of ``values`` is at or below
    ``DEGENERATE_RELATIVE_VARIANCE`` times their largest squared value
    (always for identical values)."""
    v = np.asarray(values, dtype=float)
    return not float(v.var(ddof=1)) > DEGENERATE_RELATIVE_VARIANCE * float(np.max(v * v))


def summarize_sample(values) -> SampleSummary:
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        raise ValueError("need at least two replications")
    if is_degenerate(v):
        raise ValueError("sample variance must be positive")
    mean = float(v.mean())
    var = float(v.var(ddof=1))
    z = np.sort((v - mean) / math.sqrt(var))
    return SampleSummary(len(v), mean, var, z)


def _sorted_sample(sample) -> np.ndarray:
    """The sample sorted; ValueError when it is empty or not all finite."""
    x = np.sort(np.asarray(sample, dtype=float))
    if len(x) == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains NaN or infinity")
    return x


def wasserstein1_to_standard_normal(sample) -> float:
    """Integral of |F_hat - Phi| over the line, exact piecewise.

    Tail pieces are closed forms; between consecutive order statistics the
    level i/M is integrated against Phi, splitting at the quantile when the
    level is crossed.
    """
    from scipy.special import ndtri

    x = _sorted_sample(sample)
    m = len(x)
    total = float(_H(x[0]))                     # level 0 below the minimum
    total += float(_H(x[-1]) - x[-1])           # level 1 above the maximum
    if m == 1:
        return total
    a = x[:-1]
    b = x[1:]
    c = np.arange(1, m) / m
    Ha, Hb = _H(a), _H(b)
    Pa, Pb = _Phi(a), _Phi(b)
    seg = np.empty(m - 1)
    below = Pb <= c          # Phi stays under the level: integrate c - Phi
    above = Pa >= c          # Phi stays over the level: integrate Phi - c
    cross = ~(below | above)
    seg[below] = c[below] * (b[below] - a[below]) - (Hb[below] - Ha[below])
    seg[above] = (Hb[above] - Ha[above]) - c[above] * (b[above] - a[above])
    if np.any(cross):
        t = ndtri(c[cross])
        Ht = _H(t)
        left = c[cross] * (t - a[cross]) - (Ht - Ha[cross])
        right = (Hb[cross] - Ht) - c[cross] * (b[cross] - t)
        seg[cross] = left + right
    return total + float(seg.sum())


def kolmogorov_to_standard_normal(sample) -> float:
    """sup_t |F_hat(t) - Phi(t)| via the order-statistic max formula."""
    x = _sorted_sample(sample)
    m = len(x)
    p = _Phi(x)
    upper = np.arange(1, m + 1) / m - p
    lower = p - np.arange(0, m) / m
    return float(max(upper.max(), lower.max()))


@dataclass(frozen=True)
class ScalingFit:
    """OLS of log variance against log n."""

    n_values: tuple[float, ...]
    variances: tuple[float, ...]
    slope: float
    intercept: float
    stderr: float

    def to_record(self) -> dict:
        return {
            "slope": self.slope,
            "stderr": self.stderr,
            "intercept": self.intercept,
            "points": [
                {"n": n, "variance": v}
                for n, v in zip(self.n_values, self.variances)
            ],
        }


def variance_scaling_fit(n_values, variances) -> ScalingFit:
    n_arr = np.asarray(n_values, dtype=float)
    v_arr = np.asarray(variances, dtype=float)
    if len(n_arr) < 3:
        raise ValueError("need at least three grid points")
    if np.any(v_arr <= 0):
        raise ValueError("variances must be positive")
    x = np.log(n_arr)
    y = np.log(v_arr)
    slope, intercept, stderr, _ = loglinear_fit(x, y)
    return ScalingFit(tuple(map(float, n_arr)), tuple(map(float, v_arr)), slope, intercept, stderr)


def loglinear_fit(x, y) -> tuple[float, float, float, float]:
    """OLS fit y = intercept + slope * x; returns (slope, intercept, slope
    standard error, R^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0:
        raise ValueError("degenerate abscissae")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    rss = float(np.sum(resid**2))
    tss = float(np.sum((y - ym) ** 2))
    stderr = math.sqrt(rss / (k - 2) / sxx) if k > 2 else 0.0
    r2 = 1.0 if tss == 0 else 1.0 - rss / tss
    return slope, intercept, stderr, r2


def binomial_lower_tail_bound(m: int, p: float) -> float:
    """Closed-form bound on P(Binomial(m, p) < m p / 2)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return math.exp(-m * p * (0.5 + 0.5 * math.log(0.5)))


def poisson_upper_tail_bound(ell: float) -> float:
    """Closed-form bound on P(Poisson(ell) > 8 ell)."""
    if not ell > 0:
        raise ValueError("ell must be positive")
    return math.exp(-math.log(8.0) / 4.0 * ell)


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical exceedance of {G(Z) < beta3 * |slab|} per window scale."""

    n_values: tuple[float, ...]
    slab_volumes: tuple[float, ...]
    frequencies: tuple[float, ...]
    admissible_counts: tuple[int, ...]
    slope: float | None  # log-frequency vs slab volume; None when degenerate


def concentration_check_G(model, n_values, beta3: float, replications: int, seed: int, d: int = 2) -> ConcentrationReport:
    """Sample admissible points and record how often their compound score G
    falls below beta3 times the reference slab volume."""
    from .geometry import Window, reference_slab_volume

    if model.functional_kind != "sum_log_sum":
        raise ValueError("concentration check applies to sum-log-sum models")
    freqs, slabs, counts = [], [], []
    for e, n in enumerate(n_values):
        window = Window(n=n, dim=d)
        slab = reference_slab_volume(window, model.locality_order)
        threshold = beta3 * slab
        exceed = 0
        admissible = 0
        for r in range(replications):
            cfg = model.sample(window, (seed, e, r))
            ctx = model.build_context(cfg)
            G = model.compound_all(ctx)[model.admissibility.mask(cfg, ctx)]
            admissible += len(G)
            exceed += int((G < threshold).sum())
        if admissible == 0:
            raise ValueError(f"no admissible points observed at n = {n}")
        freqs.append(exceed / admissible)
        slabs.append(slab)
        counts.append(admissible)
    positive = [(s, f) for s, f in zip(slabs, freqs) if f > 0]
    slope = None
    if len(positive) >= 2:
        xs = np.array([s for s, _ in positive])
        ys = np.log([f for _, f in positive])
        slope = loglinear_fit(xs, ys)[0]
    return ConcentrationReport(
        tuple(float(n) for n in n_values),
        tuple(map(float, slabs)),
        tuple(map(float, freqs)),
        tuple(counts),
        slope,
    )
