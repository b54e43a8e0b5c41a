"""Deviation thresholds and rate functions for sums of dependent sequences.

Everything in this module is a pure formula: given a sample size, a variance
quantity, a dependence profile and a tail exponent x, compute the threshold t
such that P(S >= t) <= exp(-x), or evaluate the underlying rate functions.
Observables are assumed bounded by 1/2, so all variance inputs are per-term
(variance of a length-k block sum divided by k).

Profiles come in two flavours.  A "phi" profile bounds conditional
expectations of block averages (selector: smallest k with k*delta_k below the
variance envelope).  A "linf" profile bounds almost-sure coupling distances
of blocks (selector couples k to the tail exponent x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoValidBlockSizeError, ValidationError

PROFILE_KINDS = ("phi", "linf")
VARIANCE_SOURCES = ("analytic", "estimated")


# ---------------------------------------------------------------------------
# rate functions


def bennett_h(x: float) -> float:
    """h(x) = (1+x) ln(1+x) - x for x >= 0."""
    if not x >= 0:
        raise DomainError(f"bennett_h needs x >= 0, got {x}", field="x")
    if x < 1e-4:
        # series sum_{k>=2} (-1)^k x^k / (k(k-1)); truncation error < x^6/30
        return x * x * (0.5 - x / 6.0 + x * x / 12.0 - x * x * x / 20.0)
    return (1.0 + x) * math.log1p(x) - x


def bernstein_h1(x: float) -> float:
    """h1(x) = 1 + x - sqrt(1 + 2x), evaluated cancellation-free.

    Algebraically 1 + x - sqrt(1+2x) = x^2 / (1 + x + sqrt(1+2x)); the second
    form avoids the subtraction of nearly equal numbers for small x.
    """
    if not x >= 0:
        raise DomainError(f"bernstein_h1 needs x >= 0, got {x}", field="x")
    return x * x / (1.0 + x + math.sqrt(1.0 + 2.0 * x))


def h1_inverse(x: float) -> float:
    """Inverse of h1 on [0, inf): h1^{-1}(x) = sqrt(2x) + x."""
    if not x >= 0:
        raise DomainError(f"h1_inverse needs x >= 0, got {x}", field="x")
    return math.sqrt(2.0 * x) + x


# ---------------------------------------------------------------------------
# profile containers


@dataclass(frozen=True, eq=False)
class DependenceProfile:
    """Dependence coefficients delta_r, r = 1..n, non-increasing in [0, 1]."""

    delta: np.ndarray
    kind: str
    n: int = field(init=False)

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValidationError(f"unknown profile kind {self.kind!r}", field="kind")
        arr = np.asarray(self.delta, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("delta must be a non-empty 1-d array", field="delta")
        object.__setattr__(self, "delta", arr)
        object.__setattr__(self, "n", int(arr.size))

    def at(self, r: int) -> float:
        """delta_r with mathematical (1-based) indexing."""
        if not 1 <= r <= self.n:
            raise DomainError(f"lag r={r} outside 1..{self.n}")
        return float(self.delta[r - 1])


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    """Per-term block variances sigma_k^2 and their upper envelope.

    envelope[k] = max_{j >= k} sigma_sq[j]; since |f| <= 1/2 forces
    sigma_k^2 <= k/4, construction rejects values above that cap.
    """

    sigma_sq: np.ndarray
    envelope: np.ndarray
    n: int
    source: str

    def sigma_at(self, k: int) -> float:
        if not 1 <= k <= self.n:
            raise DomainError(f"block length k={k} outside 1..{self.n}")
        return float(self.sigma_sq[k - 1])


def variance_profile(sigma_sq: np.ndarray, source: str = "analytic") -> VarianceProfile:
    """Build a VarianceProfile, computing the envelope by a backward pass."""
    if source not in VARIANCE_SOURCES:
        raise ValidationError(f"unknown variance source {source!r}", field="source")
    arr = np.asarray(sigma_sq, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("sigma_sq must be a non-empty 1-d array", field="sigma_sq")
    # positive form: a NaN would spread through the envelope to every smaller k
    bad = ~(arr >= 0)
    if np.any(bad):
        k = int(np.argmax(bad)) + 1
        raise ValidationError(f"sigma_sq[{k}] = {arr[k-1]} is not >= 0", field=f"sigma_sq[{k}]")
    caps = np.arange(1, arr.size + 1, dtype=np.float64) / 4.0
    over = arr > caps * (1.0 + 1e-9)
    if np.any(over):
        k = int(np.argmax(over)) + 1
        raise ValidationError(
            f"sigma_sq[{k}] = {arr[k-1]} exceeds the cap k/4 = {caps[k-1]}",
            field=f"sigma_sq[{k}]",
        )
    env = np.maximum.accumulate(arr[::-1])[::-1]
    return VarianceProfile(sigma_sq=arr, envelope=env, n=int(arr.size), source=source)


@dataclass(frozen=True)
class BlockSelection:
    """Result of a block-size search; k is None when no k is admissible."""

    k: int | None
    variance_at_k: float | None


# ---------------------------------------------------------------------------
# block-size selectors


def select_k_star(delta: DependenceProfile, variance: VarianceProfile) -> BlockSelection:
    """Smallest k in 1..n with k * delta_k <= envelope_k (phi-route selector)."""
    if delta.n != variance.n:
        raise ValidationError(
            f"profile lengths differ: delta has n={delta.n}, variance has n={variance.n}",
            field="n",
        )
    ks = np.arange(1, delta.n + 1, dtype=np.float64)
    hits = np.nonzero(ks * delta.delta <= variance.envelope)[0]
    if hits.size == 0:
        return BlockSelection(k=None, variance_at_k=None)
    k = int(hits[0]) + 1
    return BlockSelection(k=k, variance_at_k=float(variance.envelope[k - 1]))


def select_k_star_prime(delta_prime: DependenceProfile, n: int, x: float) -> BlockSelection:
    """Smallest k in 1..n with n * delta'_k <= k * x (coupling-route selector).

    The admissibility condition couples k to the tail exponent, so x = 0 is
    rejected rather than silently selecting nothing.
    """
    if delta_prime.kind != "linf":
        raise ValidationError(
            f"selector needs a linf profile, got kind={delta_prime.kind!r}", field="kind"
        )
    if not x > 0:
        raise DomainError(f"select_k_star_prime needs x > 0, got {x}", field="x")
    if not n >= 1:
        raise DomainError(f"select_k_star_prime needs n >= 1, got {n}", field="n")
    if delta_prime.n < n:
        raise ValidationError(
            f"profile covers lags 1..{delta_prime.n}, need 1..{n}", field="n"
        )
    ks = np.arange(1, n + 1, dtype=np.float64)
    hits = np.nonzero(n * delta_prime.delta[:n] <= ks * x)[0]
    if hits.size == 0:
        return BlockSelection(k=None, variance_at_k=None)
    return BlockSelection(k=int(hits[0]) + 1, variance_at_k=None)


def smallest_k_meeting(g, target: float, cap: int) -> int | None:
    """Smallest k in 1..cap with g(k) <= target, for g nonincreasing in k; None
    when g(cap) > target.  Doubles k to bracket it, then bisects (Bentley & Yao
    1976), so about 2 log2 k calls of g and no array sized by k."""
    lo = hi = 1
    while g(hi) > target:
        if hi >= cap:
            return None
        lo, hi = hi, min(2 * hi, cap)
    while lo < hi:
        mid = (lo + hi) // 2
        if g(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# thresholds and tail bounds


def iid_bernstein_threshold(n: int, sigma1_sq: float, x: float) -> float:
    """Independent-case threshold sqrt(2 n sigma1^2 x) + x/6."""
    _check_threshold_args(n, sigma1_sq, x, "sigma1_sq")
    return max(0.0, math.sqrt(2.0 * n * sigma1_sq * x) + x / 6.0)


def thm1_threshold(n: int, envelope_at_k_star: float, k_star: int, x: float) -> float:
    """Bernstein-type threshold 5.8 sqrt(n sigma_bar^2 x) + 1.5 k* x."""
    _check_threshold_args(n, envelope_at_k_star, x, "envelope_at_k_star")
    _check_k(k_star, n)
    return max(0.0, 5.8 * math.sqrt(n * envelope_at_k_star * x) + 1.5 * k_star * x)


def thm2_threshold(n: int, sigma_sq_at_kp: float, k_star_prime: int, x: float) -> float:
    """Coupling-route threshold 2 sqrt(n sigma_k^2 x) + 1.34 k*' x."""
    _check_threshold_args(n, sigma_sq_at_kp, x, "sigma_sq_at_kp")
    _check_k(k_star_prime, n)
    return max(0.0, 2.0 * math.sqrt(n * sigma_sq_at_kp * x) + 1.34 * k_star_prime * x)


def thm2_bennett_tail(
    n: int, k: int, sigma_k_sq: float, delta_prime_k: float, x: float
) -> float:
    """Bennett-form tail exp(-(2n sigma^2/k^2) h(k (x - n delta') / (2n sigma^2))).

    Defined for x >= n*delta'_k.  A degenerate block variance gives the
    limiting point mass: 0 for x strictly above n*delta'_k, 1 at equality.
    """
    _require("n", n, 1)
    _check_k(k, n)
    _require("sigma_k_sq", sigma_k_sq, 0)
    _require("delta_prime_k", delta_prime_k, 0)
    shift = n * delta_prime_k
    if not x >= shift:
        raise DomainError(f"need x >= n*delta'_k = {shift}, got x = {x}", field="x")
    if sigma_k_sq == 0.0:
        return 1.0 if x == shift else 0.0
    scale = 2.0 * n * sigma_k_sq
    exponent = (scale / (k * k)) * bennett_h(k * (x - shift) / scale)
    return min(1.0, math.exp(-exponent))


def hoeffding_threshold(n: int, phi, x: float) -> float:
    """Whole-tail Hoeffding threshold sqrt(x/2 * sum_j (1 + 2(n-j) phi_j)^2).

    phi_j bounds the dependence of the entire future block (X_{j+1},...,X_n)
    on the first j coordinates; the j = n summand is 1 by convention (the
    factor n - j vanishes, so phi_n never enters). Every entry given must lie
    in [0, 1], those past n - 1 too.
    """
    _require("n", n, 1)
    _require("x", x, 0)
    w = np.asarray(phi, dtype=np.float64)
    if w.size < n - 1:
        raise ValidationError(f"phi has {w.size} entries, need at least n-1 = {n-1}", field="phi")
    outside = ~((w >= 0) & (w <= 1))  # NaN included
    if np.any(outside):
        j = int(np.argmax(outside)) + 1
        raise ValidationError(f"phi[{j}] = {w[j-1]} outside [0, 1]", field=f"phi[{j}]")
    j = np.arange(1, n, dtype=np.float64)
    total = float(np.sum((1.0 + 2.0 * (n - j) * w[: n - 1]) ** 2)) + 1.0
    return max(0.0, math.sqrt(0.5 * total * x))


def varest_bound(sigma1_sq: float, mean_abs_f: float, delta: DependenceProfile, k: int) -> float:
    """Variance bound sigma_1^2 + 2 E|f| sum_{r<k} delta_r."""
    _require("sigma1_sq", sigma1_sq, 0)
    _require("mean_abs_f", mean_abs_f, 0)
    _check_k(k)
    if k > delta.n:
        raise DomainError(f"k = {k} exceeds profile length n = {delta.n}")
    return sigma1_sq + 2.0 * mean_abs_f * float(np.sum(delta.delta[: k - 1]))


# ---------------------------------------------------------------------------
# log moment generating function diagnostics


def log_mgf_bound_thm1(t: float, n: int, k: int, sigma_k_sq: float, delta_k: float) -> float:
    """Blocking-route bound 4 n t^2 (2(e-2) sigma_k^2 + e k delta_k), 0 <= t <= 1.

    Intended pairing is k = min(floor(1/t), n); the formula is evaluated for
    whatever k the caller supplies so both sides of that choice can be probed.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"need 0 <= t <= 1, got {t}", field="t")
    _check_k(k)
    _require("n", n, 1)
    _require("sigma_k_sq", sigma_k_sq, 0)
    _require("delta_k", delta_k, 0)
    return 4.0 * n * t * t * (2.0 * (math.e - 2.0) * sigma_k_sq + math.e * k * delta_k)


def log_mgf_bound_thm2(t: float, n: int, k: int, sigma_k_sq: float, delta_prime_k: float) -> float:
    """Coupling-route bound (2n sigma^2/k^2)(e^{kt} - kt - 1) + n delta'_k t."""
    _require("t", t, 0)
    _check_k(k)
    _require("n", n, 1)
    _require("sigma_k_sq", sigma_k_sq, 0)
    _require("delta_prime_k", delta_prime_k, 0)
    kt = k * t
    try:
        return (2.0 * n * sigma_k_sq / (k * k)) * (math.expm1(kt) - kt) + n * delta_prime_k * t
    except OverflowError:  # e^{kt} past the largest float: no finite bound
        return math.inf


# ---------------------------------------------------------------------------


def _require(name: str, value, low) -> None:
    # positive form, so a NaN fails it instead of slipping through
    if not value >= low:
        raise DomainError(f"need {name} >= {low}, got {value}", field=name)


def _check_threshold_args(n: int, variance: float, x: float, name: str) -> None:
    _require("n", n, 1)
    _require(name, variance, 0)
    _require("x", x, 0)


def _check_k(k, n=None) -> None:
    if k is None:
        raise NoValidBlockSizeError("block size is the no-selection sentinel; refuse to compute")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"block size must be a positive integer, got {k!r}", field="k")
    if n is not None and k > n:
        raise DomainError(f"block size k = {k} exceeds n = {n}", field="k")
