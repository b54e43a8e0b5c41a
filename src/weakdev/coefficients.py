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

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bounds import DependenceProfile, smallest_k_meeting
from .errors import DomainError, ValidationError

_MONOTONE_TOL = 1e-12

# Default truncation keeps neglected tail weight at or below this.
TRUNCATION_TAIL = 2.0**-40


# ---------------------------------------------------------------------------
# weight sequences


@dataclass(frozen=True)
class WeightSequence:
    """Summable nonnegative weights a_j, j >= 1, one subclass per family.

    A family's dataclass fields are its config keys, its class attribute
    `family` is its name in WEIGHTS, and it defines _term, _tail and _tails.
    Tails are exact or rigorous upper bounds; a family with c == 0 has zero
    tails without evaluating them.
    """

    def __post_init__(self):
        if self.c < 0:
            raise DomainError(f"need c >= 0, got {self.c}", field="c")

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

    @property
    def total(self) -> float:
        """sum_{j >= 1} a_j (upper bound for the polynomial family)."""
        return self.tail_sum(1)

    def suggest_truncation(self, tol: float = TRUNCATION_TAIL) -> int:
        """Smallest M >= 1 with tail_sum(M + 1) <= tol."""
        if tol <= 0:
            raise DomainError(f"need tol > 0, got {tol}")
        m = smallest_k_meeting(lambda k: self.tail_sum(k + 1), tol, 10**7)
        if m is None:
            raise ValidationError(f"no truncation below tol={tol} within 1e7 terms; "
                                  "set truncation explicitly", field="truncation")
        return m


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
            raise DomainError(f"need 0 < ratio < 1, got {self.ratio}", field="ratio")

    def _term(self, j: int) -> float:
        return self.c * self.ratio**j

    def _tail(self, p: int) -> float:
        return self.c * self.ratio**p / (1.0 - self.ratio)

    def _tails(self, m: int) -> np.ndarray:
        # Python's ** per term, as _tail takes it: numpy's may differ in the last bit
        return self.c * np.array([self.ratio**p for p in range(1, m + 1)]) / (1.0 - self.ratio)


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
            raise DomainError(
                f"need power > 1 for summability, got {self.power}", field="power"
            )

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
        """Raises each index to -power once and sums every window of
        _PARTIAL_TERMS of them; the integral term stays in Python floats,
        whose ** differs from numpy's in the last bit."""
        c, s, K = self.c, self.power, self._PARTIAL_TERMS
        powers = np.arange(1, m + K, dtype=np.float64) ** -s
        partial = sliding_window_view(powers, K).sum(axis=1).tolist()
        return np.array(
            [c * w + c * (p + K - 1.0) ** (1.0 - s) / (s - 1.0) for p, w in enumerate(partial, 1)]
        )


WEIGHTS = {cls.family: cls for cls in (ZeroWeights, GeometricWeights, PolynomialWeights)}


# ---------------------------------------------------------------------------
# profile generators


def doubling_map_profile(n: int) -> DependenceProfile:
    """Doubling-map coefficients delta_r = (4/9) 2^-r / r (linf kind)."""
    r = np.arange(1, _check_n(n) + 1, dtype=np.float64)
    delta = (4.0 / 9.0) * np.power(0.5, r) / r
    return _finalize(delta, "linf")


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
    The inner minimum is a prefix minimum over p, so the r summands are
    nonincreasing in j, and delta'_r is evaluated as their minimum (the
    j = 2r - 1 one) plus their mean excess over it.  The lags are scanned in
    blocks of _BLOCK_ROWS rows: each chunk of p fills one rows x chunk array
    of a^(r/p) + tail_sum(p), and every row keeps its running minimum m.
    After a chunk, a row leaves the scan if a^(r/p) at p = min(chunk end,
    r - 1) reaches m: the tails are nonnegative and a^(r/p) rises with p, so
    no later p lowers m, all r prefix minima for j = r..2r-1 equal m, the
    excess is zero and delta'_r = m exactly.  A chunk may run past
    p = r - 1, but those terms exceed a^(r/(r-1)), so they never set the m
    of a row that leaves.  A row that reaches p = r - 1 without leaving
    forms the full prefix minimum over p <= 2r - 1.  A block's first chunk
    ends where a row of the previous block last left, the later chunks
    double in width, and the tail table is computed only as far as the scan
    reads it.
    """
    n = _check_n(n)
    a = weights.total
    if a >= 1.0:
        raise ValidationError(f"need sum of weights < 1, got {a}", field="weights")
    # a = 0: exp(-inf) = 0 gives the zero powers
    log_a = math.log(a) if a > 0.0 else -math.inf
    tails = _TailTable(weights, 2 * n - 1)
    delta = np.empty(n)
    first = 16  # end of the first block's first chunk
    for r0 in range(1, n + 1, _BLOCK_ROWS):
        rs = np.arange(r0, min(r0 + _BLOCK_ROWS, n + 1))
        first = _scan_block(rs, log_a, tails, first, delta)
    return _finalize(delta, "linf")


# Rows per block of the double-minimum scan: a chunk's array holds
# _BLOCK_ROWS x (chunk width) floats.
_BLOCK_ROWS = 64

# The early exit needs a^(r/p) a few ulps above the running minimum, so a
# non-monotone last bit of np.exp cannot let a later p undercut it.
_EXIT_SLACK = 1.0 + 8.0 * np.finfo(np.float64).eps


class _TailTable:
    """tail_sum(1..m) as far as it is read; it grows at least twofold at a
    time, up to `cap` entries."""

    def __init__(self, weights: WeightSequence, cap: int):
        self.weights, self.cap, self.table = weights, cap, np.empty(0)

    def __getitem__(self, span: slice) -> np.ndarray:
        if span.stop > self.table.size:
            size = min(max(span.stop, 2 * self.table.size), self.cap)
            self.table = self.weights.tail_sums(size)
        return self.table[span]


def _scan_block(rs: np.ndarray, log_a: float, tails: _TailTable, first: int, delta: np.ndarray) -> int:
    """Set delta[r - 1] for the lags rs of infinite_memory_profile; the first
    chunk ends at p = `first`.  Returns the chunk end where a row last left.

    Every row is the minimum of its window of prefix minima plus the window's
    mean excess; a leaving row's window is constant, so its delta is m."""
    m = np.full(rs.size, math.inf)
    live = np.flatnonzero(rs > 1)  # r = 1 has no p < r to scan
    full = rs[rs == 1].tolist()
    lo, hi = 0, first
    while live.size:
        r = rs[live]
        lim = r - 1
        hi = min(hi, int(lim[-1]))
        # float rows: an int64 operand would be cast element by element
        vals = np.divide(r[:, None].astype(np.float64), np.arange(lo + 1, hi + 1, dtype=np.float64))
        vals *= log_a
        np.exp(vals, out=vals)
        vals += tails[lo:hi]
        m[live] = np.minimum(m[live], vals.min(axis=1))
        end = np.minimum(lim, hi)
        leave = np.exp((r / end) * log_a) >= m[live] * _EXIT_SLACK
        if leave.any():
            first = hi
            delta[r[leave] - 1] = m[live[leave]]
        full += r[~leave & (end == lim)].tolist()
        live = live[~leave & (end < lim)]
        lo, hi = hi, 2 * hi
    for r in full:
        powers = np.exp((r / np.arange(1, 2 * r, dtype=np.float64)) * log_a)
        best = np.minimum.accumulate(powers + tails[: 2 * r - 1])
        delta[r - 1] = best[-1] + float((best[r - 1 :] - best[-1]).sum()) / r
    return first


def bernoulli_shift_linf_profile(C: float, weights: WeightSequence, n: int) -> DependenceProfile:
    """Shift with bounded innovations: r delta'_r = C * tail_sum(r)."""
    if C < 0:
        raise DomainError(f"need C >= 0, got {C}")
    n = _check_n(n)
    r = np.arange(1, n + 1)
    delta = C * weights.tail_sums(n) / r
    return _finalize(delta, "linf")


def validate_profile(profile: DependenceProfile) -> DependenceProfile:
    """Refuse a NaN or negative delta, clip delta into [0, 1], then insist it
    is non-increasing.

    The first offending lag is reported on failure; the tolerance absorbs
    round-off only (1e-12).
    """
    # positive form: NaN clips to NaN and passes the monotonicity test
    bad = ~(profile.delta >= 0)
    if np.any(bad):
        r = int(np.argmax(bad)) + 1
        raise ValidationError(f"delta[{r}] = {profile.delta[r-1]} is not >= 0", field=f"delta[{r}]")
    clipped = np.clip(profile.delta, 0.0, 1.0)
    rises = np.diff(clipped) > _MONOTONE_TOL
    if np.any(rises):
        r = int(np.argmax(rises)) + 2
        raise ValidationError(
            f"profile increases at r = {r}: delta[{r}] = {clipped[r-1]} > delta[{r-1}] = {clipped[r-2]}",
            field=f"delta[{r}]",
        )
    return DependenceProfile(delta=clipped, kind=profile.kind)


# ---------------------------------------------------------------------------


def _finalize(delta: np.ndarray, kind: str) -> DependenceProfile:
    return validate_profile(DependenceProfile(delta=np.asarray(delta, dtype=np.float64), kind=kind))


def _check_n(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"need integer n >= 1, got {n!r}")
    return int(n)
