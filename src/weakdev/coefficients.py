"""Dependence-coefficient profiles for the example processes.

Each generator returns a DependenceProfile over lags r = 1..n.  Values are
clipped into [0, 1] (a coefficient above 1 carries no information for
bounded observables) and checked to be non-increasing.

Weight sequences represent summable Lipschitz coefficients a_j of a shift
functional: finitely many explicit terms plus a tail that is either an exact
closed form (geometric) or a rigorous upper bound (partial sums plus an
integral tail for polynomial decay).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import DependenceProfile
from .errors import DomainError, ValidationError

_MONOTONE_TOL = 1e-12

# Default truncation keeps neglected tail weight at or below this.
TRUNCATION_TAIL = 2.0**-40


# ---------------------------------------------------------------------------
# weight sequences


@dataclass(frozen=True)
class WeightSequence:
    """Summable nonnegative weights a_j, j >= 1, one subclass per family.

    A family's dataclass fields are its config keys and its class attribute
    `family` is its name in WEIGHTS.  Tails are exact or rigorous upper
    bounds; a family with c == 0 has zero tails without evaluating them.
    """

    def __post_init__(self):
        if self.c < 0:
            raise DomainError(f"need c >= 0, got {self.c}")

    def term(self, j: int) -> float:
        """a_j."""
        if j < 1:
            raise DomainError(f"need j >= 1, got {j}")
        return self._term(j)

    def tail_sum(self, p: int) -> float:
        """sum_{i >= p} a_i, exact or a rigorous upper bound."""
        if p < 1:
            raise DomainError(f"need p >= 1, got {p}")
        return 0.0 if self.c == 0.0 else self._tail(p)

    def tail_sums(self, m: int) -> np.ndarray:
        """[tail_sum(1), ..., tail_sum(m)], equal to the scalar calls bit for bit."""
        if m < 1:
            raise DomainError(f"need m >= 1, got {m}")
        return np.zeros(m) if self.c == 0.0 else self._tails(m)

    def _tails(self, m: int) -> np.ndarray:
        return np.array([self._tail(p) for p in range(1, m + 1)])

    @property
    def total(self) -> float:
        """sum_{j >= 1} a_j (upper bound for the polynomial family)."""
        return self.tail_sum(1)

    def suggest_truncation(self, tol: float = TRUNCATION_TAIL) -> int:
        """Smallest M >= 1 with tail_sum(M + 1) <= tol."""
        if tol <= 0:
            raise DomainError(f"need tol > 0, got {tol}")
        m = 1
        while self.tail_sum(m + 1) > tol:
            m *= 2
            if m > 10**7:
                raise ValidationError(f"no truncation below tol={tol} within 1e7 terms")
        lo, hi = max(1, m // 2), m
        while lo < hi:
            mid = (lo + hi) // 2
            if self.tail_sum(mid + 1) <= tol:
                hi = mid
            else:
                lo = mid + 1
        return lo


@dataclass(frozen=True)
class ZeroWeights(WeightSequence):
    """a_j = 0."""

    family = "zero"
    c = 0.0  # not a field, so not a config key; every tail takes the c == 0 path

    def _term(self, j: int) -> float:
        return 0.0


@dataclass(frozen=True)
class GeometricWeights(WeightSequence):
    """a_j = c * ratio^j with c >= 0 and 0 < ratio < 1; tails are exact."""

    c: float
    ratio: float
    family = "geometric"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.ratio < 1.0:
            raise DomainError(f"need 0 < ratio < 1, got {self.ratio}")

    def _term(self, j: int) -> float:
        return self.c * self.ratio**j

    def _tail(self, p: int) -> float:
        return self.c * self.ratio**p / (1.0 - self.ratio)


@dataclass(frozen=True)
class PolynomialWeights(WeightSequence):
    """a_j = c * j^(-power) with c >= 0 and power > 1; tails are bounded above
    by _PARTIAL_TERMS explicit terms plus an integral estimate."""

    c: float
    power: float
    family = "polynomial"

    _PARTIAL_TERMS = 1024

    def __post_init__(self):
        super().__post_init__()
        if self.power <= 1.0:
            raise DomainError(f"need power > 1 for summability, got {self.power}")

    def _term(self, j: int) -> float:
        return self.c * float(j) ** (-self.power)

    def _tail(self, p: int) -> float:
        s = self.power
        top = p + self._PARTIAL_TERMS
        i = np.arange(p, top, dtype=np.float64)
        partial = self.c * float(np.sum(i**-s))
        # integral bound: sum_{i >= top} i^-s <= int_{top-1}^inf x^-s dx
        return partial + self.c * (top - 1.0) ** (1.0 - s) / (s - 1.0)

    def _tails(self, m: int) -> np.ndarray:
        """Raises each index to -power once and sums a sliding window of
        _PARTIAL_TERMS of them; the integral term stays in Python floats,
        whose ** differs from numpy's in the last bit."""
        c, s, K = self.c, self.power, self._PARTIAL_TERMS
        powers = np.arange(1, m + K, dtype=np.float64) ** -s
        return np.array(
            [
                c * float(powers[p - 1 : p - 1 + K].sum())
                + c * (p + K - 1.0) ** (1.0 - s) / (s - 1.0)
                for p in range(1, m + 1)
            ]
        )


WEIGHTS = {cls.family: cls for cls in (ZeroWeights, GeometricWeights, PolynomialWeights)}


@dataclass(frozen=True)
class ShiftRegularity:
    """Regularity data of a Bernoulli shift for the phi-type profile.

    phi[m-1] bounds the mixing coefficient of the innovation sequence at gap
    m; v[k-1] is the shift's continuity rate at window k; modulus_mean(eta)
    returns E[w_H(U_0, eta)] clipped to 1, w_H the modulus of continuity.
    """

    phi: Sequence[float]
    v: Sequence[float]
    modulus_mean: Callable[[float], float]

    def __post_init__(self):
        for name, seq in (("phi", self.phi), ("v", self.v)):
            arr = np.asarray(seq, dtype=np.float64)
            if np.any(arr < 0):
                raise ValidationError(f"{name} must be nonnegative", field=name)
            if np.any(np.diff(arr) > _MONOTONE_TOL):
                i = int(np.argmax(np.diff(arr) > _MONOTONE_TOL)) + 2
                raise ValidationError(f"{name} increases at index {i}", field=f"{name}[{i}]")


# ---------------------------------------------------------------------------
# profile generators


def doubling_map_profile(n: int) -> DependenceProfile:
    """Doubling-map coefficients delta_r = (4/9) 2^-r / r (linf kind)."""
    r = np.arange(1, _check_n(n) + 1, dtype=np.float64)
    delta = (4.0 / 9.0) * np.power(0.5, r) / r
    return _finalize(delta, "linf")


def expanding_map_profile(C: float, rho: float, n: int) -> DependenceProfile:
    """Uniformly expanding map: delta_r = min(C rho^r / r, 1) (phi kind)."""
    if C < 0:
        raise DomainError(f"need C >= 0, got {C}")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"need 0 < rho < 1, got {rho}")
    r = np.arange(1, _check_n(n) + 1, dtype=np.float64)
    delta = C * np.power(rho, r) / r
    return _finalize(delta, "phi")


def markov_contraction_profile(kappa: float, n: int) -> DependenceProfile:
    """Contracting Markov kernel: r delta'_r = kappa^r (1 + kappa + ... + kappa^r).

    The geometric factor is kappa^r (1 - kappa^{r+1}) / (1 - kappa); values
    above 1 are clipped.
    """
    if not 0.0 < kappa < 1.0:
        raise DomainError(f"need 0 < kappa < 1, got {kappa}")
    r = np.arange(1, _check_n(n) + 1, dtype=np.float64)
    rdelta = np.power(kappa, r) * (1.0 - np.power(kappa, r + 1.0)) / (1.0 - kappa)
    return _finalize(rdelta / r, "linf")


def infinite_memory_profile(weights: WeightSequence, n: int) -> DependenceProfile:
    """Chain with infinite memory, contraction total a = sum a_j < 1.

    r delta'_r = sum_{j=r}^{2r-1} min_{0 < p <= j} (a^(r/p) + tail_sum(p)).
    The inner minimum is a prefix minimum over p.  For each r the scan over p
    runs in chunks of doubling size and stops as soon as a^(r/p) alone
    reaches the running minimum m: the tails are nonnegative and a^(r/p)
    rises with p, so no later p lowers m, and all r prefix minima for
    j = r..2r-1 equal m.  An r costs O(stop point), and the first chunk ends
    where the previous r stopped; only when the scan reaches p = r - 1
    without stopping is the full prefix minimum formed.
    """
    n = _check_n(n)
    a = weights.total
    if a >= 1.0:
        raise ValidationError(f"need sum of weights < 1, got {a}", field="weights")
    p = np.arange(1, 2 * n, dtype=np.float64)
    tails = weights.tail_sums(2 * n - 1)
    # a = 0: exp(-inf) = 0 gives the zero powers
    log_a = math.log(a) if a > 0.0 else -math.inf
    delta = np.empty(n)
    stop = 16  # length of the first chunk; afterwards, where the last r stopped
    for r in range(1, n + 1):
        rdelta, stop = _double_min_sum(r, log_a, p, tails, stop)
        delta[r - 1] = rdelta / r
    return _finalize(delta, "linf")


# The early exit needs a^(r/p) a few ulps above the running minimum, so a
# non-monotone last bit of np.exp cannot let a later p undercut it.
_EXIT_SLACK = 1.0 + 8.0 * np.finfo(np.float64).eps


def _double_min_sum(r: int, log_a: float, p: np.ndarray, tails: np.ndarray, first: int):
    """(r delta'_r, stop point) of infinite_memory_profile; the scan over p
    starts with a chunk of `first` terms."""
    m = math.inf
    lo, hi = 0, min(first, r - 1)
    while lo < hi:
        powers = np.exp((r / p[lo:hi]) * log_a)
        m = min(m, (powers + tails[lo:hi]).min())
        if powers[-1] >= m * _EXIT_SLACK:
            return float(np.full(r, m).sum()), hi
        lo, hi = hi, min(2 * hi, r - 1)
    powers = np.exp((r / p[: 2 * r - 1]) * log_a)
    best = np.minimum.accumulate(powers + tails[: 2 * r - 1])
    return float(best[r - 1 : 2 * r - 1].sum()), first


def bernoulli_shift_linf_profile(C: float, weights: WeightSequence, n: int) -> DependenceProfile:
    """Shift with bounded innovations: r delta'_r = C * tail_sum(r)."""
    if C < 0:
        raise DomainError(f"need C >= 0, got {C}")
    n = _check_n(n)
    r = np.arange(1, n + 1)
    delta = C * weights.tail_sums(n) / r
    return _finalize(delta, "linf")


def bernoulli_shift_phi_profile(reg: ShiftRegularity, n: int) -> DependenceProfile:
    """Shift over mixing innovations (phi kind).

    delta_r = min_{1 <= k <= r-1} [ 2 phi_{r-k} + min(3 E w_H(U_0, 2 v_k), 1) ],
    with delta_1 = 1 (the empty minimum clips to the trivial coefficient).
    """
    n = _check_n(n)
    phi = np.asarray(reg.phi, dtype=np.float64)
    v = np.asarray(reg.v, dtype=np.float64)
    if phi.size < n - 1 or v.size < n - 1:
        raise ValidationError(f"phi and v need at least n-1 = {n-1} entries", field="phi")
    # composite term: E(3 w_H(U_0, 2 v_k)) ^ 1 == min(3 * (E w_H ^ 1), 1)
    comp = np.array([min(3.0 * reg.modulus_mean(2.0 * float(vk)), 1.0) for vk in v[: n - 1]])
    delta = np.empty(n)
    delta[0] = 1.0
    for r in range(2, n + 1):
        k = np.arange(1, r)
        delta[r - 1] = float(np.min(2.0 * phi[r - k - 1] + comp[k - 1]))
    return _finalize(delta, "phi")


def validate_profile(profile: DependenceProfile) -> DependenceProfile:
    """Clip delta into [0, 1], then insist it is non-increasing.

    The first offending lag is reported on failure; the tolerance absorbs
    round-off only (1e-12).
    """
    clipped = np.clip(profile.delta, 0.0, 1.0)
    rises = np.diff(clipped) > _MONOTONE_TOL
    if np.any(rises):
        r = int(np.argmax(rises)) + 2
        raise ValidationError(
            f"profile increases at r = {r}: delta[{r}] = {clipped[r-1]} > delta[{r-1}] = {clipped[r-2]}",
            field=f"delta[{r}]",
        )
    return DependenceProfile(delta=clipped, kind=profile.kind)


def write_profile_csv(profile: DependenceProfile, path) -> None:
    """CSV with columns r, delta, kind."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["r", "delta", "kind"])
        for r in range(1, profile.n + 1):
            w.writerow([r, repr(profile.at(r)), profile.kind])


# ---------------------------------------------------------------------------


def _finalize(delta: np.ndarray, kind: str) -> DependenceProfile:
    return validate_profile(DependenceProfile(delta=np.asarray(delta, dtype=np.float64), kind=kind))


def _check_n(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"need integer n >= 1, got {n!r}")
    return int(n)
