"""Experiment orchestration: configs, verification runs, report rows.

A verification run ties the layers together: take the model's own dependence
profile (model.linf_profile) and its exact variance profile (from psi and the
innovation law), select block sizes, evaluate thresholds, and compare each
bound against the empirical tail of S(f) with an exact binomial interval.

Seed layout (derived from config.base_seed, so reports are functions of the
config document alone): lane 1 feeds the tail simulation, and its child 0
draws the one sample of S(f) that every x-grid entry reads. Nothing else is
simulated. A row therefore does not depend on which other x were requested,
while rows at different x share their sample.
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
    smallest_k_meeting,
    thm1_threshold,
    thm2_threshold,
    variance_profile,
)
from .coefficients import (
    WEIGHTS,
    DependenceProfile,
    WeightSequence,
    # not called here; perfbench/layers.py rebinds these names
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
    MODELS,
    OBSERVABLES,
    ProcessModel,
    analytic_sigma_profile,
    observable_for,
)
from .rng import MASK64, derive_seed

THEOREMS = ("iid_eq1", "thm1", "thm2", "hoeffding")

_LANE_TAILS = 1

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
        if not 0 <= self.base_seed <= MASK64:
            raise ConfigError(f"need 0 <= base_seed <= 2^64 - 1, got {self.base_seed}",
                              field="base_seed")
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
    """registry[doc[tag]], each dataclass field parsed from doc by its declared
    type's _PARSERS entry; a value the class refuses is a ConfigError on its path."""
    name = doc[tag]
    if not isinstance(name, str) or name not in registry:
        raise ConfigError(f"unknown {noun} {tag} {name!r}", field=f"{path}{tag}")
    cls = registry[name]
    params = fields(cls)
    required = {p.name for p in params if p.default is MISSING}
    _check_keys(doc, {tag, *(p.name for p in params)}, path, noun, required, needs.format(name))
    values = {p.name: _PARSERS[p.type](doc[p.name], path + p.name)
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


# one parser per declared type (annotation text) of a model or weight-family field
_PARSERS = {
    "float": _number,
    "int | None": lambda v, field: None if v is None else _integer(v, field),
    "WeightSequence": lambda v, _field: build_weights(v),
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
    if obs not in OBSERVABLES:
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
    """The linf dependence profile the model's simulator provably satisfies:
    model.linf_profile(n), which refuses a model that declares none."""
    return model.linf_profile(n)


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


def mc_variance_profile(model: ProcessModel, f, n: int, reps: int, seed: int,
                        threads: int = 1) -> VarianceProfile:
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
    f = observable_for(model, config.observable, config.omega)
    if not xs:
        return []
    varprof = analytic_sigma_profile(model, f, n)
    profile = dependence_profile_for(model, n) if theorem != "iid_eq1" else None

    # one block size per x (None: no admissible k, so the claim is skipped)
    if theorem == "thm1":
        selection = select_k_star(profile, varprof)
        ks = [selection.k] * len(xs)
    elif theorem == "thm2":
        ks = [select_k_star_prime(profile, n, x).k for x in xs]
    else:
        ks = [None] * len(xs)
    s1 = varprof.sigma_at(1)
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
        source = "" if var is None else varprof.source
        return ReportRow(theorem, x, k, var, source, threshold, bound, est.p_hat, est.ci_high,
                         "pass" if est.ci_high <= bound else "fail")

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
            var = varprof.sigma_at(k)
            rows.append(row(theorem, x, k, var, thm2_threshold(n, var, k, x)))
        rows.append(row("iid_eq1_ref", x, *iid))
    return rows


# ---------------------------------------------------------------------------
# block-size asymptotics


@dataclass(frozen=True)
class AsymptoticsRow:
    target: float
    k_star: int
    ratio: float


_K_CAP = 1 << 30


def run_blocksize_asymptotics(
    family: str, targets, c: float = 1.0, decay: float = 0.5
) -> list[AsymptoticsRow]:
    """k*(v) = min{k : k delta_k <= v}, found by smallest_k_meeting up to _K_CAP,
    with the normalization that should stabilize: k*/ln(1/v) for geometric
    profiles k delta_k = c decay^k, and k*/v^{1/(1-decay)} for polynomial
    profiles delta_k = c k^{-decay} (decay > 1)."""
    # positive forms with finite caps: a NaN or infinite target, c or decay
    # would pass every comparison as k* = 1 or end in math.log(0.0)
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
    elif family == "polynomial":
        if not 1.0 < decay < math.inf:
            raise DomainError(f"need finite decay > 1, got {decay}", field="decay")
        kdelta = lambda ks: c * ks ** (1.0 - decay)
        norm = lambda v: v ** (1.0 / (1.0 - decay))
    else:
        raise DomainError(f"unknown profile family {family!r}", field="family")
    if not 0.0 < c < math.inf:
        raise DomainError(f"need finite c > 0, got {c}", field="c")

    # numpy's power on a float64 array: Python's ** can differ in the last bit
    g = lambda k: kdelta(np.array([k], dtype=np.float64))[0]
    ks = [smallest_k_meeting(g, v, _K_CAP) for v in targets]
    # the smallest target needs the largest k*; refuse it before any row
    if ks[-1] is None:
        raise DomainError(f"no block size up to {_K_CAP} meets target {targets[-1]}",
                          field="targets")
    rows = []
    for v, k in zip(targets, ks):
        # ln(1/v) is 0 at v = 1 and negative above; v^(1/(1-decay)) can overflow
        try:
            ratio = k / norm(v)
        except (OverflowError, ZeroDivisionError):
            ratio = math.nan
        if not 0.0 < ratio < math.inf:
            raise DomainError(f"target {v} gives no finite, positive {family} ratio "
                              f"(k* = {k}, decay = {decay})", field="targets")
        rows.append(AsymptoticsRow(target=v, k_star=k, ratio=ratio))
    return rows


def ratio_spread(rows: list[AsymptoticsRow]) -> float:
    """max/min of the normalized ratios; 1.0 means perfectly stable."""
    ratios = [r.ratio for r in rows]
    return max(ratios) / min(ratios)
