"""Experiment orchestration: configs, verification runs, report rows.

A verification run ties the layers together: build the model's dependence
profile, obtain a variance profile (closed form where one exists, Monte
Carlo otherwise), select block sizes, evaluate thresholds, and compare each
bound against the empirical tail of S(f) with an exact binomial interval.

Seed layout (all derived from config.base_seed, so reports are functions of
the config document alone): lane 1 feeds the tail simulation (its child 0
draws the one sample of S(f) that every x-grid entry reads), lane 2 feeds
variance estimation (one run serves every block length k a row needs),
lane 3 feeds observable centering. A row therefore does not depend on which
other x were requested, while rows at different x share their sample.
Whenever the configured theorem is a blockwise bound, each x also gets a
plain iid-formula row on the same simulated sample, tagged iid_eq1_ref; it
is a reference curve, not a claimed bound. The harness returns rows and
writes no file: `cli` writes every report.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .bounds import (
    VarianceProfile,
    hoeffding_threshold,
    iid_bernstein_threshold,
    select_k_star,
    select_k_star_prime,
    thm1_threshold,
    thm2_threshold,
    variance_profile,
)
from .coefficients import (
    WEIGHTS,
    DependenceProfile,
    GeometricWeights,
    WeightSequence,
    bernoulli_shift_linf_profile,
    doubling_map_profile,
    infinite_memory_profile,
    markov_contraction_profile,
)
from .errors import ConfigError, DomainError, ValidationError
from .estimation import (
    DEFAULT_ALPHA,
    estimate_sigma_profile,
    per_rep_sums,
    tail_from_sums,
)
from .processes import (
    BernoulliShiftGeometric,
    DoublingMap,
    IidUniform,
    InfiniteMemoryChain,
    LipschitzKernelChain,
    MODELS,
    ProcessModel,
    analytic_sigma_profile,
    observable_for,
)
from .rng import derive_seed

THEOREMS = ("iid_eq1", "thm1", "thm2", "hoeffding")

_LANE_TAILS = 1
_LANE_VARIANCE = 2
_LANE_CENTERING = 3

# the largest array length numpy can index: an upper bound, not a budget
_MAX_SIZE = int(np.iinfo(np.intp).max)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    model: ProcessModel
    observable: str
    omega: int
    n: int
    x_grid: tuple[float, ...]
    theorem: str
    reps: int
    base_seed: int
    alpha: float
    out: str | None

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ConfigError(f"unknown theorem {self.theorem!r}", field="theorem")
        if self.n < 1:
            raise ConfigError(f"need n >= 1, got {self.n}", field="n")
        if self.reps < 1:
            raise ConfigError(f"need reps >= 1, got {self.reps}", field="reps")
        for name in ("n", "reps"):
            if getattr(self, name) > _MAX_SIZE:
                raise ConfigError(f"{name} must be at most {_MAX_SIZE}", field=name)
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"need 0 < alpha < 1, got {self.alpha}", field="alpha")
        if any(not 0.0 < x < math.inf for x in self.x_grid):
            raise ConfigError("x_grid entries must be positive and finite", field="x_grid")
        if any(b <= a for a, b in zip(self.x_grid, self.x_grid[1:])):
            raise ConfigError("x_grid must be strictly increasing", field="x_grid")


def build_weights(doc: dict) -> WeightSequence:
    """A weight sequence from {"family": name, <field>: value, ...}."""
    if not isinstance(doc, dict):
        raise ConfigError("weights must be an object", field="model.weights")
    if "family" not in doc:
        raise ConfigError("weights need a 'family' key", field="model.weights.family")
    return _build(WEIGHTS, doc, "family", "model.weights.", "weight", "weight family {!r} needs")


def build_model(doc: dict | str) -> ProcessModel:
    """A model from {"variant": name, <field>: value, ...} or a bare variant name."""
    if isinstance(doc, str):
        doc = {"variant": doc}
    if not isinstance(doc, dict):
        raise ConfigError("model must be an object or a variant name", field="model")
    if "variant" not in doc:
        raise ConfigError("model needs a 'variant' key", field="model.variant")
    return _build(MODELS, doc, "variant", "model.", "model", "{} needs")


def _build(registry: dict, doc: dict, tag: str, path: str, noun: str, needs: str):
    """registry[doc[tag]], each of its dataclass fields parsed from doc by _FIELDS;
    a value the class refuses is a ConfigError on that field's path."""
    name = doc[tag]
    if not isinstance(name, str) or name not in registry:
        raise ConfigError(f"unknown {noun} {tag} {name!r}", field=f"{path}{tag}")
    cls = registry[name]
    params = fields(cls)
    required = {p.name for p in params if p.default is MISSING}
    _check_keys(doc, {tag, *(p.name for p in params)}, path, noun, required, needs.format(name))
    values = {p.name: _FIELDS[p.name](doc[p.name], path + p.name)
              for p in params if p.name in doc}
    try:
        return cls(**values)
    except (DomainError, ValidationError) as exc:
        field = path + exc.field if exc.field else path.rstrip(".")
        raise ConfigError(str(exc), field=field) from exc


def _check_keys(doc: dict, allowed, path: str, noun: str, required=(), needs: str = "") -> None:
    """Refuse the first unknown key of doc, then the first missing required one;
    the field is the key prefixed with path."""
    extra = sorted(set(doc) - set(allowed))
    if extra:
        raise ConfigError(f"unknown {noun} key {extra[0]!r}", field=f"{path}{extra[0]}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"{needs} {missing[0]!r}", field=f"{path}{missing[0]}")


def _number(value, field: str) -> float:
    """A finite JSON number; bools and strings are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{field} must be a finite number, got {value!r}", field=field)


def _integer(value, field: str) -> int:
    """A JSON integer, or a float with an integral value; bools are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{field} must be an integer, got {value!r}", field=field)


# one parser per dataclass field of a model or weight family
_FIELDS = {
    "kappa": _number,
    "theta": _number,
    "c": _number,
    "ratio": _number,
    "power": _number,
    "weights": lambda v, _field: build_weights(v),
    "truncation": lambda v, field: None if v is None else _integer(v, field),
}


_TOP_KEYS = {"model", "observable", "n", "x_grid", "theorem", "reps", "base_seed", "alpha", "out"}
_REQUIRED_KEYS = {"model", "n", "x_grid", "theorem", "reps", "base_seed"}


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a JSON config document; unknown keys are hard errors."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object", field="<root>")
    _check_keys(doc, _TOP_KEYS, "", "config", _REQUIRED_KEYS, "missing config key")
    obs = doc.get("observable", "centered-identity")
    omega = 1
    if isinstance(obs, dict):
        _check_keys(obs, {"id", "omega"}, "observable.", "observable")
        omega = _integer(obs.get("omega", 1), "observable.omega")
        if omega < 1:
            raise ConfigError(f"need omega >= 1, got {omega}", field="observable.omega")
        obs = obs.get("id", "centered-identity")
    if obs not in ("centered-identity", "centered-cosine"):
        raise ConfigError(f"unknown observable {obs!r}", field="observable")
    x_grid = doc["x_grid"]
    if not isinstance(x_grid, (list, tuple)):
        raise ConfigError("x_grid must be a list", field="x_grid")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}", field="out")
    return ExperimentConfig(
        model=build_model(doc["model"]),
        observable=obs,
        omega=omega,
        n=_integer(doc["n"], "n"),
        x_grid=tuple(_number(x, "x_grid") for x in x_grid),
        theorem=doc["theorem"],
        reps=_integer(doc["reps"], "reps"),
        base_seed=_integer(doc["base_seed"], "base_seed"),
        alpha=_number(doc.get("alpha", DEFAULT_ALPHA), "alpha"),
        out=out,
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))


# ---------------------------------------------------------------------------
# model profiles and harness glue


def dependence_profile_for(model: ProcessModel, n: int) -> DependenceProfile:
    """The linf dependence profile each simulator provably satisfies; any
    other model is refused."""
    if isinstance(model, IidUniform):
        return DependenceProfile(delta=np.zeros(n), kind="linf")
    if isinstance(model, DoublingMap):
        return doubling_map_profile(n)
    if isinstance(model, LipschitzKernelChain):
        return markov_contraction_profile(model.kappa, n)
    if isinstance(model, BernoulliShiftGeometric):
        th = model.theta
        # lag-i innovation weight (1-theta) theta^i gives block tails
        # r delta'_r = theta^r / (1-theta)
        return bernoulli_shift_linf_profile(
            th / (1.0 - th), GeometricWeights((1.0 - th) / th, th), n
        )
    if isinstance(model, InfiniteMemoryChain):
        return infinite_memory_profile(model.weights, n)
    raise ValidationError(f"no dependence profile for model {type(model).__name__}", field="model")


def hoeffding_phi(profile: DependenceProfile, n: int) -> np.ndarray:
    """Future-block coefficients phi_1..phi_{n-1} from a blockwise profile.

    The future lags 1..n-j are covered by dyadic blocks (length 2^p starting
    at lag 2^p), each contributing its blockwise bound 2^p delta'_{2^p}; the
    total T_j is spread uniformly as phi_j = min(1, T_j / (n-j)), so the
    threshold's (n-j) phi_j term recovers T_j. Conservative glue.

    T_j is entry bit_length(n-j) - 1 of the cumulative sum of the dyadic
    terms, which np.cumsum adds left to right.
    """
    if profile.kind != "linf":
        raise DomainError("per-lag construction needs an linf profile")
    if profile.n < n:
        raise DomainError(f"profile covers {profile.n} lags, need {n}")
    r = 1 << np.arange((n - 1).bit_length())
    totals = np.cumsum(r * profile.delta[r - 1])
    L = np.arange(n - 1, 0, -1)
    # frexp's exponent of a positive integer is its bit length
    return np.minimum(1.0, totals[np.frexp(L)[1] - 1] / L)


def mc_variance_profile(
    model: ProcessModel,
    f,
    n: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> VarianceProfile:
    """Estimated variance profile on a dyadic block grid, step-filled.

    sigma_k^2 is estimated at k in {1, 2, 4, ..., n}; intermediate k reuse
    the estimate at the nearest grid point below. One run out to n serves
    the whole grid.
    """
    grid = [1 << p for p in range((n - 1).bit_length())] + [n]
    ests = estimate_sigma_profile(model, f, grid, reps, seed, threads)
    filled = np.repeat([e.sigma_sq_hat for e in ests], np.diff(grid + [n + 1]))
    return variance_profile(filled, source="estimated")


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class ReportRow:
    theorem: str
    x: float
    k_selected: int | None
    variance_used: float | None
    variance_source: str
    threshold: float | None
    bound_value: float
    p_hat: float | None
    ci_high: float | None
    verdict: str


def run_verification(config: ExperimentConfig, threads: int = 1) -> list[ReportRow]:
    """One ReportRow per x (plus an iid reference row for blockwise bounds)."""
    model, n, theorem, xs = config.model, config.n, config.theorem, config.x_grid
    f = observable_for(
        model,
        config.observable,
        config.omega,
        seed=derive_seed(config.base_seed, _LANE_CENTERING),
    )
    if not xs:
        return []
    varprof = analytic_sigma_profile(model, f, n)
    source = "analytic" if varprof is not None else "estimated"
    var_lane = derive_seed(config.base_seed, _LANE_VARIANCE)
    profile = dependence_profile_for(model, n) if theorem != "iid_eq1" else None

    # one block size per x (None: no admissible k, so the claim is skipped)
    if theorem == "thm1":
        if varprof is None:
            varprof = mc_variance_profile(model, f, n, config.reps, var_lane, threads)
        selection = select_k_star(profile, varprof)
        ks = [selection.k] * len(xs)
    elif theorem == "thm2":
        ks = [select_k_star_prime(profile, n, x).k for x in xs]
    else:
        ks = [None] * len(xs)
    # every sigma_k^2 a row reads: a profile, or one estimate over {1} and the selected k
    if varprof is not None:
        var_at = varprof.sigma_at
    else:
        wanted = sorted({1, *(k for k in ks if k is not None)})
        ests = estimate_sigma_profile(model, f, wanted, config.reps, var_lane, threads)
        var_at = {e.k: e.sigma_sq_hat for e in ests}.__getitem__
    s1 = var_at(1)
    phis = hoeffding_phi(profile, n) if theorem == "hoeffding" else None

    # one sample of S(f) serves every x
    tail_lane = derive_seed(config.base_seed, _LANE_TAILS)
    sums = per_rep_sums(model, f, n, config.reps, derive_seed(tail_lane, 0), threads)

    def row(theorem, x, k=None, var=None, threshold=None) -> ReportRow:
        """The claim's row, checked on the sample; no threshold marks it skipped."""
        bound = math.exp(-x)
        if threshold is None:
            return ReportRow(theorem, x, None, None, "", None, bound, None, None, "skipped")
        est = tail_from_sums(sums, threshold, x=x, alpha=config.alpha)
        return ReportRow(theorem, x, k, var, "" if var is None else source, threshold, bound,
                         est.p_hat, est.ci_high, "pass" if est.ci_high <= bound else "fail")

    rows = []
    for x, k in zip(xs, ks):
        iid = (None, s1, iid_bernstein_threshold(n, s1, x))
        if theorem == "iid_eq1":
            rows.append(row(theorem, x, *iid))
            continue
        if theorem == "hoeffding":
            rows.append(row(theorem, x, threshold=hoeffding_threshold(n, phis, x)))
        elif k is None:
            rows.append(row(theorem, x))
        elif theorem == "thm1":
            var = selection.variance_at_k
            rows.append(row(theorem, x, k, var, thm1_threshold(n, var, k, x)))
        else:
            rows.append(row(theorem, x, k, var_at(k), thm2_threshold(n, var_at(k), k, x)))
        rows.append(row("iid_eq1_ref", x, *iid))
    return rows


# ---------------------------------------------------------------------------
# block-size asymptotics


@dataclass(frozen=True)
class AsymptoticsRow:
    target: float
    k_star: int
    ratio: float


_SCAN_CAP = 1 << 30
# chunks stop doubling here, so a scan out to _SCAN_CAP holds about 32 MiB per array
_SCAN_CHUNK = 1 << 22
# relative slack on the closed-form k*, so a k* at the cap is still scanned
_CAP_SLACK = 1e-9


def run_blocksize_asymptotics(
    family: str, targets, c: float = 1.0, decay: float = 0.5
) -> list[AsymptoticsRow]:
    """k*(v) = min{k : k delta_k <= v} by exhaustive scan, with the
    normalization that should stabilize: k*/ln(1/v) for geometric profiles
    k delta_k = c decay^k, and k*/v^{1/(1-decay)} for polynomial profiles
    delta_k = c k^{-decay} (decay > 1)."""
    # positive forms with finite caps: a NaN or infinite target, c or decay
    # would scan towards _SCAN_CAP or end in math.log(0.0)
    targets = [float(v) for v in targets]
    if not all(0.0 < v < math.inf for v in targets):
        raise DomainError(f"targets must be positive and finite, got {targets}", field="targets")
    if any(b >= a for a, b in zip(targets, targets[1:])):
        raise DomainError("targets must be strictly decreasing", field="targets")
    if family == "geometric":
        if not 0.0 < decay < 1.0:
            raise DomainError(f"need 0 < decay < 1, got {decay}", field="decay")
        kdelta = lambda ks: c * decay**ks
        norm = lambda v: math.log(1.0 / v)
        # k* = ln(c/v) / ln(1/decay), in logs so that c/v cannot overflow
        log_k = lambda v: math.log((math.log(c) - math.log(v)) / -math.log(decay))
    elif family == "polynomial":
        if not 1.0 < decay < math.inf:
            raise DomainError(f"need finite decay > 1, got {decay}", field="decay")
        kdelta = lambda ks: c * ks ** (1.0 - decay)
        norm = lambda v: v ** (1.0 / (1.0 - decay))
        # k* = (c/v)^(1/(decay-1)), in logs
        log_k = lambda v: (math.log(c) - math.log(v)) / (decay - 1.0)
    else:
        raise DomainError(f"unknown profile family {family!r}", field="family")
    if not 0.0 < c < math.inf:
        raise DomainError(f"need finite c > 0, got {c}", field="c")

    # the smallest target needs the largest k*; refuse it before any scan
    v = targets[-1]
    if c > v and log_k(v) > math.log(_SCAN_CAP * (1.0 + _CAP_SLACK)):
        raise DomainError(
            f"target {v} needs a block size of about 10^{log_k(v) / math.log(10.0):.1f}, "
            f"above the scan cap {_SCAN_CAP}",
            field="targets",
        )
    rows = []
    for v in targets:
        k = _scan_first_k(kdelta, v)
        rows.append(AsymptoticsRow(target=v, k_star=k, ratio=k / norm(v)))
    return rows


def _scan_first_k(kdelta, v: float) -> int:
    lo = 1
    chunk = 1 << 16
    while lo <= _SCAN_CAP:
        hi = min(lo + chunk, _SCAN_CAP + 1)
        ks = np.arange(lo, hi, dtype=np.float64)
        ok = np.nonzero(kdelta(ks) <= v)[0]
        if ok.size:
            return lo + int(ok[0])
        lo = hi
        chunk = min(2 * chunk, _SCAN_CHUNK)
    raise DomainError(f"no block size up to {_SCAN_CAP} meets target {v}", field="targets")


def ratio_spread(rows: list[AsymptoticsRow]) -> float:
    """max/min of the normalized ratios; 1.0 means perfectly stable."""
    ratios = [r.ratio for r in rows]
    return max(ratios) / min(ratios)
