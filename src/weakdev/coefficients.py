"""Dependence-coefficient profiles for the example processes.

Each generator returns a linf DependenceProfile over lags r = 1..n, which
checks and clips its own values.

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

from .bounds import DependenceProfile, _check_n, smallest_k_meeting
from .errors import ValidationError

# Default truncation keeps neglected tail weight at or below this.
TRUNCATION_TAIL = 2.0**-40


# ---------------------------------------------------------------------------
# weight sequences


@dataclass(frozen=True)
class WeightSequence:
    """Summable nonnegative weights a_j, j >= 1, one subclass per family.

    A family's dataclass fields are its config keys, its class attribute
    `family` is its name in WEIGHTS, and it defines _term(j) and _tails(p, m)
    = [A_p, ..., A_{p+m-1}], A_p = sum_{i >= p} a_i, which every tail reads.
    Tails are exact or rigorous upper bounds; a family with c == 0 has zero
    tails without evaluating them.
    """

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:  # positive form, so a NaN fails it
            raise ValidationError(f"need finite c >= 0, got {self.c}", field="c")

    def term(self, j: int) -> float:
        """a_j."""
        if j < 1:
            raise ValidationError(f"need j >= 1, got {j}")
        return self._term(j)

    def tail_sum(self, p: int) -> float:
        """sum_{i >= p} a_i, exact or a rigorous upper bound."""
        if p < 1:
            raise ValidationError(f"need p >= 1, got {p}")
        return 0.0 if self.c == 0.0 else float(self._tails(p, 1)[0])

    def tail_sums(self, m: int) -> np.ndarray:
        """[tail_sum(1), ..., tail_sum(m)], from the same _tails."""
        if m < 1:
            raise ValidationError(f"need m >= 1, got {m}")
        return np.zeros(m) if self.c == 0.0 else self._tails(1, m)

    @property
    def total(self) -> float:
        """sum_{j >= 1} a_j (upper bound for the polynomial family)."""
        return self.tail_sum(1)

    def suggest_truncation(self, tol: float = TRUNCATION_TAIL) -> int:
        """Smallest M >= 1 with tail_sum(M + 1) <= tol."""
        if not 0.0 < tol < math.inf:
            raise ValidationError(f"need finite tol > 0, got {tol}", field="tol")
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
            raise ValidationError(f"need 0 < ratio < 1, got {self.ratio}", field="ratio")

    def _term(self, j: int) -> float:
        return self.c * self.ratio**j

    def _tails(self, p: int, m: int) -> np.ndarray:
        # Python's ** per term, as _term takes it: numpy's may differ in the last bit
        return self.c * np.array([self.ratio**q for q in range(p, p + m)]) / (1.0 - self.ratio)


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
        if not 1.0 < self.power < math.inf:
            raise ValidationError(
                f"need finite power > 1 for summability, got {self.power}", field="power"
            )

    def _term(self, j: int) -> float:
        return self.c * float(j) ** (-self.power)

    def _tails(self, p: int, m: int) -> np.ndarray:
        """Raises each index to -power once and sums every window of
        _PARTIAL_TERMS of them; the integral term stays in Python floats,
        whose ** differs from numpy's in the last bit."""
        c, s, K = self.c, self.power, self._PARTIAL_TERMS
        powers = np.arange(p, p + m + K - 1, dtype=np.float64) ** -s
        partial = sliding_window_view(powers, K).sum(axis=1).tolist()
        # integral bound: sum_{i >= q+K} i^-s <= int_{q+K-1}^inf x^-s dx
        return np.array(
            [c * w + c * (q + K - 1.0) ** (1.0 - s) / (s - 1.0) for q, w in enumerate(partial, p)]
        )


WEIGHTS = {cls.family: cls for cls in (ZeroWeights, GeometricWeights, PolynomialWeights)}


# ---------------------------------------------------------------------------
# profile generators


def doubling_map_profile(n: int) -> DependenceProfile:
    """Doubling-map coefficients delta_r = (4/9) 2^-r / r (linf kind)."""
    r = np.arange(1, _check_n(n) + 1, dtype=np.float64)
    delta = (4.0 / 9.0) * np.power(0.5, r) / r
    return DependenceProfile(delta, "linf")


def markov_contraction_profile(kappa: float, n: int) -> DependenceProfile:
    """Contracting Markov kernel: r delta'_r = kappa^r (1 + kappa + ... + kappa^r).

    The geometric factor is kappa^r (1 - kappa^{r+1}) / (1 - kappa); values
    above 1 are clipped.
    """
    if not 0.0 < kappa < 1.0:
        raise ValidationError(f"need 0 < kappa < 1, got {kappa}")
    r = np.arange(1, _check_n(n) + 1, dtype=np.float64)
    rdelta = np.power(kappa, r) * (1.0 - np.power(kappa, r + 1.0)) / (1.0 - kappa)
    return DependenceProfile(rdelta / r, "linf")


def infinite_memory_profile(weights: WeightSequence, n: int) -> DependenceProfile:
    """Chain with infinite memory, contraction total a = sum a_j < 1.

    r delta'_r = sum_{j=r}^{2r-1} min_{0 < p <= j} g_r(p), where
    g_r(p) = a^(r/p) + A_p and A_p = tail_sum(p).  The inner minimum is a
    prefix minimum over p, so the r summands are nonincreasing in j, and
    delta'_r is evaluated as their minimum (the j = 2r - 1 one) plus their
    mean excess over it.

    Each lag is bracketed around a guessed p: q, interpolated between the
    minimizing p of the anchor lags 1, 2, 4, ..., n, gives the upper bound
    m0 = g_r(q), and two cuts exclude the p where g_r(p) cannot fall below
    m0:
    - tail cut: before p_lo, the first p where the running minimum of the
      tails falls below m0, every A_p >= m0, so g_r(p) >= A_p >= m0, as
      rounding a sum of nonnegative numbers is monotone;
    - power cut: from p_hi <= r - 1, where a^(r/p) >= m0 * _EXIT_SLACK (plus
      one subnormal ulp), on, every a^(r/p) >= m0, as a^(r/p) rises with p
      and the slack covers a non-monotone last bit of np.exp; the tails are
      nonnegative, so g_r(p) >= m0.
    So the minimum m over all p <= 2r - 1 is min(m0, min over
    p_lo <= p < p_hi).  Every prefix minimum for j = r..2r-1 covers all
    p < p_hi, q among them (g_r(q) = m0 > 0 puts q below p_hi; m0 = 0 with
    q >= r needs a = 0, where every term is 0), so all r of them equal m,
    the excess is zero and delta'_r = m exactly.  A lag with no power cut,
    as r = 1, forms the full prefix minimum over p <= 2r - 1.  The guesses
    read the tail table as far as the last lag's power cut; the brackets
    then read it as far as the largest power cut, or 2r - 1 for the largest
    lag without one.
    """
    n = _check_n(n)
    a = weights.total
    if not a < 1.0:
        raise ValidationError(f"need sum of weights < 1, got {a}", field="weights")
    # a = 0: exp(-inf) = 0 gives the zero powers
    log_a = math.log(a) if a > 0.0 else -math.inf
    tails = _tail_table(weights, n, log_a)
    # the minimizing p <= r - 1 of the anchor lags 1, 2, 4, ..., n: a guess
    # past r - 1 leaves no power cut; q <= r - 1 holds at the anchors, so also
    # for the lags interpolated between them
    anchors = np.unique(np.minimum(2 ** np.arange(n.bit_length() + 1), n))
    anchor_q = [np.argmin(_terms(r, tails[: max(r - 1, 1)], log_a)) + 1.0 for r in anchors.tolist()]
    delta = np.empty(n)  # each lag's bound m0, then its minimum
    hi = np.full(n, np.inf)  # each lag's power cut; r = 1 has none
    for r0 in range(2, n + 1, _BLOCK_ROWS):
        rs = np.arange(r0, min(r0 + _BLOCK_ROWS, n + 1), dtype=np.float64)
        q = np.rint(np.interp(rs, anchors, anchor_q))
        m0 = _powers(rs, q, log_a)
        m0 += tails[q.astype(np.intp) - 1]
        delta[r0 - 1 : r0 - 1 + rs.size] = m0
        hi[r0 - 1 : r0 - 1 + rs.size] = _power_cut(rs, m0, log_a, rs - 1.0)
    cut = hi < np.arange(1, n + 1)
    full = (np.flatnonzero(~cut) + 1).tolist()
    size = max(int(np.max(hi, where=cut, initial=1.0)), 2 * full[-1] - 1)
    if size > tails.size:
        tails = weights.tail_sums(size)
    floor = -np.minimum.accumulate(tails)  # nondecreasing, for searchsorted
    for r0 in range(2, n + 1, _BLOCK_ROWS):
        rs = np.arange(r0, min(r0 + _BLOCK_ROWS, n + 1), dtype=np.float64)
        block = slice(r0 - 1, r0 - 1 + rs.size)
        keep = cut[block]
        delta[block][keep] = _bracket(rs[keep], delta[block][keep], hi[block][keep], tails, floor, log_a)
    for r in full:
        best = np.minimum.accumulate(_terms(r, tails[: 2 * r - 1], log_a))
        delta[r - 1] = best[-1] + float((best[r - 1 :] - best[-1]).sum()) / r
    return DependenceProfile(delta, "linf")


# Lags per block of infinite_memory_profile, and the most terms one chunk of
# a block's band evaluates at a time.
_BLOCK_ROWS = 2048
_CHUNK_TERMS = 2**14

# The power cut needs a^(r/p) a few ulps above m0, so a non-monotone last bit
# of np.exp cannot let a later p undercut it; one subnormal ulp more covers
# powers that underflow, where a relative slack rounds away.
_EXIT_SLACK = 1.0 + 8.0 * np.finfo(np.float64).eps
_TINY = float(np.nextafter(0.0, 1.0))

# Tails read to size the table from the last lag's power cut.
_FIRST_TAILS = 64


def _powers(r, p, log_a: float) -> np.ndarray:
    """a^(r/p) as exp((r/p) log a), r and p broadcasting float operands."""
    vals = np.divide(r, p)
    vals *= log_a
    return np.exp(vals, out=vals)


def _terms(r, tails: np.ndarray, log_a: float) -> np.ndarray:
    """g_r(p) = a^(r/p) + A_p for p = 1..tails.size."""
    return _powers(r, np.arange(1.0, tails.size + 1), log_a) + tails


def _tail_table(weights: WeightSequence, n: int, log_a: float) -> np.ndarray:
    """tail_sum(1..m), m the power cut of lag n for the bound g_n(p) at the
    best p <= _FIRST_TAILS, or 2n - 1 if lag n has no power cut."""
    tails = weights.tail_sums(min(_FIRST_TAILS, 2 * n - 1))
    m0 = _terms(n, tails, log_a).min()
    size = _power_cut(np.array([float(n)]), np.array([m0]), log_a, np.array([n - 1.0]))[0]
    size = 2 * n - 1 if size > n - 1 else int(size)
    return tails if size <= tails.size else weights.tail_sums(size)


def _power_cut(r: np.ndarray, m0: np.ndarray, log_a: float, limit: np.ndarray) -> np.ndarray:
    """Per lag, a p <= limit with a^(r/p) >= m0 * _EXIT_SLACK + _TINY (any p
    if m0 = 0), or limit + 1 for none.

    The first such p is about r log(a) / log(m0 * _EXIT_SLACK); a few steps
    up absorb its rounding, and a lag that needs more gets none.
    """
    t = m0 * _EXIT_SLACK + _TINY
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.ceil(r * log_a / np.log(t))
    t[m0 == 0.0] = 0.0
    p[m0 == 0.0] = 1.0  # no g_r(p) is below 0, even for a = 0
    # a NaN, a p below 1 (t > 1) or past the limit: no power cut
    none = ~((p >= 1.0) & (p <= limit))
    p[none] = limit[none] + 1.0
    for _ in range(4):
        check = np.flatnonzero(p <= limit)
        short = check[_powers(r[check], p[check], log_a) < t[check]]
        if not short.size:
            return p
        p[short] += 1.0
    p[short] = limit[short] + 1.0
    return p


def _bracket(rs: np.ndarray, m: np.ndarray, hi: np.ndarray, tails: np.ndarray,
             floor: np.ndarray, log_a: float) -> np.ndarray:
    """Lower the bounds m0 = m of the lags rs of infinite_memory_profile, in
    place, to the minimum over all p of g_r(p), given their power cuts hi.

    Each lag's bracket [p_lo, p_hi) starts a band of the block's widest
    bracket, moved down where it would pass p = 2r - 1 or the table, so
    every p it holds is a term of the lag.  The band is evaluated in chunks;
    a chunk is skipped when a^(r/p) at its first p plus the running tail
    minimum at its last p already reaches every lag's minimum.
    """
    lo = np.searchsorted(floor, -m, side="right")  # p_lo - 1
    width = int(np.max(hi - 1 - lo, initial=0))
    # a band that would pass p = 2r - 1 or the table starts lower; a band
    # wider than 2r - 1 is clipped at p = 2r - 1
    last = 2 * rs.astype(np.intp) - 2
    start = np.maximum(np.minimum(np.minimum(lo, last + 1 - width), tails.size - width), 0)
    clip = rs.size and 2 * rs[0] - 1 < width
    step = max(1, _CHUNK_TERMS // max(rs.size, 1))
    for k0 in range(0, width, step):
        k1 = min(k0 + step, width)
        if k0:
            low = _powers(rs, start + (k0 + 1.0), log_a)
            low /= _EXIT_SLACK
            low -= _TINY
            low -= floor[start + k1 - 1]
            if np.all(low >= m):
                continue
        j = start + np.arange(k0, k1)[:, None]
        if clip:
            np.minimum(j, last, out=j)
        vals = np.add(j, 1.0)
        np.divide(rs, vals, out=vals)
        vals *= log_a
        np.exp(vals, out=vals)
        vals += tails[j]
        np.minimum(m, vals.min(axis=0), out=m)
    return m


def bernoulli_shift_linf_profile(C: float, weights: WeightSequence, n: int) -> DependenceProfile:
    """Shift with bounded innovations: r delta'_r = C * tail_sum(r)."""
    if C < 0:
        raise ValidationError(f"need C >= 0, got {C}")
    n = _check_n(n)
    r = np.arange(1, n + 1)
    delta = C * weights.tail_sums(n) / r
    return DependenceProfile(delta, "linf")
