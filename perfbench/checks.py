"""Reference computations the benchmark checks weakdev's outputs against.

Everything here is coded from the formulas in the paper and the package
README, not by calling weakdev: closed-form profiles, the infinite-memory
double minimum, exhaustive block-size scans, the threshold formulas, the
pathwise coupling caps and exact binomial intervals from scipy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import zeta
from scipy.stats import binomtest

# Relative tolerances: formulas re-evaluated in another order agree to a few
# ulps; scipy's exact interval and weakdev's beta quantiles to ~1e-10.
REL_FORMULA = 1e-12
REL_CI = 1e-8


def close(a: float, b: float, rel: float = REL_FORMULA) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# dependence profiles, as r * delta'_r


def doubling_rdelta(r: int) -> float:
    return (4.0 / 9.0) * 0.5**r


def kernel_rdelta(kappa: float, r: int) -> float:
    return kappa**r * (1.0 - kappa ** (r + 1)) / (1.0 - kappa)


def bernoulli_rdelta(theta: float, r: int) -> float:
    return theta**r / (1.0 - theta)


class InfiniteMemoryReference:
    """r delta'_r = sum_{j=r}^{2r-1} min_{1<=p<=j} (a^(r/p) + A_p), A_p = sum_{i>=p} a_i.

    Tails are exact: closed form for geometric weights, Hurwitz zeta for
    polynomial ones.  weakdev bounds the polynomial tail from above (1024
    explicit terms plus an integral), which can exceed the exact tail by at
    most c * 1024^-power; `slack` carries that allowance into a check.
    """

    def __init__(self, family: str, c: float, param: float, max_lag: int):
        p = np.arange(1, 2 * max_lag, dtype=np.float64)
        if family == "geometric":
            tails = c * param**p / (1.0 - param)
        else:
            tails = c * zeta(param, p)
        self.tails = [0.0] + tails.tolist()  # tails[p] = A_p
        self.a = self.tails[1]
        self.slack = 0.0 if family == "geometric" else 2.0 * c * 1024.0 ** (-param)

    def rdelta(self, r: int) -> float:
        total, best = 0.0, math.inf
        for j in range(1, 2 * r):
            best = min(best, self.a ** (r / j) + self.tails[j])
            if j >= r:
                total += best
        return total


def delta_matches(got: float, rdelta_ref: float, r: int, slack: float = 0.0) -> bool:
    """weakdev's delta'_r (clipped into [0, 1]) against the reference."""
    want = min(rdelta_ref / r, 1.0)
    lo = want * (1.0 - 1e-9) - 1e-15
    hi = min(1.0, want * (1.0 + 1e-9) + slack + 1e-15)
    return lo <= got <= hi


def non_increasing_in_unit_interval(delta) -> bool:
    return all(0.0 <= d <= 1.0 for d in delta) and all(
        b <= a + 1e-12 for a, b in zip(delta, delta[1:])
    )


# ---------------------------------------------------------------------------
# block sizes and thresholds


def scan_k_star_prime(delta, n: int, x: float) -> int | None:
    """Smallest k in 1..n with n delta'_k <= k x, by plain scan."""
    for k in range(1, n + 1):
        if n * delta[k - 1] <= k * x:
            return k
    return None


def scan_k_star(rdelta_at, v: float, k_max: int) -> int | None:
    """Smallest k with k delta_k <= v, by plain scan."""
    for k in range(1, k_max + 1):
        if rdelta_at(k) <= v:
            return k
    return None


def thm1(n: int, sigma_bar_sq: float, k: int, x: float) -> float:
    return 5.8 * math.sqrt(n * sigma_bar_sq * x) + 1.5 * k * x


def thm2(n: int, sigma_sq: float, k: int, x: float) -> float:
    return 2.0 * math.sqrt(n * sigma_sq * x) + 1.34 * k * x


def iid_eq1(n: int, sigma1_sq: float, x: float) -> float:
    return math.sqrt(2.0 * n * sigma1_sq * x) + x / 6.0


def hoeffding(n: int, phis, x: float) -> float:
    total = 1.0 + sum((1.0 + 2.0 * (n - j) * phis[j - 1]) ** 2 for j in range(1, n))
    return math.sqrt(0.5 * total * x)


def dyadic_phi(delta, n: int, j: int) -> float:
    """phi_j = min(1, T_j / (n - j)), T_j = sum over 2^p <= n - j of 2^p delta'_{2^p}."""
    span = n - j
    total, r = 0.0, 1
    while r <= span:
        total += r * delta[r - 1]
        r *= 2
    return min(1.0, total / span)


def doubling_sigma_sq(k: int) -> float:
    return (1.0 + (2.0 / k) * (k - 2.0 + 2.0 ** (1 - k))) / 12.0


def ci_high(hits: int, reps: int, alpha: float) -> float:
    return float(binomtest(hits, reps).proportion_ci(1.0 - alpha, method="exact").high)


# ---------------------------------------------------------------------------
# coupled blocks


def pathwise_cap(rho: float, r: int) -> float:
    """sum_{m=r}^{2r-1} rho^m bounds sum_{i=r+j}^{2r+j-1} |X_i - X*_i|."""
    return sum(rho**m for m in range(r, 2 * r))


def doubling_max_tolerance(reps: int, false_alarm: float) -> float:
    """eps with P(max of reps draws of |U - V| <= 1 - eps) <= false_alarm.

    For U, V iid uniform, P(|U - V| > 1 - eps) = eps^2, so the max stays at
    or below 1 - eps with probability (1 - eps^2)^reps <= exp(-reps eps^2).
    """
    return math.sqrt(math.log(1.0 / false_alarm) / reps)
