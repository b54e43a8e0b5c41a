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
Whenever the configured theorem reads a dependence profile, each x also gets
a plain iid-formula row on the same simulated sample, tagged iid_eq1_ref; it
is a reference curve, not a claimed bound. The harness returns rows and
writes no file: `cli` writes every report.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .bounds import (
    VarianceProfile,
    _check_n,
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
from .errors import ConfigError, ValidationError
from .estimation import (
    DEFAULT_ALPHA,
    check_reps,
    estimate_sigma_profile,
    per_rep_sums,
    tail_from_sums,
)
from .processes import (
    MODELS,
    ObservableF,
    ProcessModel,
    analytic_sigma_profile,
    observable_for,
)
from .rng import MASK64, derive_seed

_LANE_TAILS = 1

# the largest array length numpy can index: an upper bound, not a budget
_MAX_SIZE = int(np.iinfo(np.intp).max)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """A verification run; its fields but omega are the config's keys."""

    model: ProcessModel
    observable: str = "centered-identity"
    omega: int | None = None  # set by the {"id": ..., "omega": ...} form of observable
    n: int
    x_grid: tuple[float, ...]
    theorem: str
    reps: int
    base_seed: int
    alpha: float = DEFAULT_ALPHA
    out: str | None = None

    def __post_init__(self):
        try:
            ObservableF(self.observable, 0.0, self.omega)
        except ValidationError as exc:
            raise ConfigError(str(exc), field="observable" if exc.field == "kind"
                              else "observable.omega") from exc
        if self.theorem not in THEOREMS:
            raise ConfigError(f"unknown theorem {self.theorem!r}", field="theorem")
        for name in ("n", "reps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"need {name} >= 1, got {getattr(self, name)}", field=name)
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
    return _build(WEIGHTS, doc, "family", "model.weights", "weight")


def build_model(doc: dict | str) -> ProcessModel:
    """A model from {"variant": name, <field>: value, ...} or a bare variant name."""
    return _build(MODELS, {"variant": doc} if isinstance(doc, str) else doc, "variant", "model",
                  "model")


def _build(registry: dict, doc: dict, tag: str, path: str, noun: str):
    """registry[doc[tag]], built by _from_fields from the rest of doc."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object", field=path)
    if tag not in doc:
        raise ConfigError(f"{path} needs a {tag!r} key", field=f"{path}.{tag}")
    name = doc[tag]
    if not isinstance(name, str) or name not in registry:
        raise ConfigError(f"unknown {noun} {tag} {name!r}", field=f"{path}.{tag}")
    rest = {k: v for k, v in doc.items() if k != tag}
    return _from_fields(registry[name], rest, path + ".", noun, f"{noun} {tag} {name!r} needs")


def _from_fields(cls, doc: dict, path: str, noun: str, needs: str, **fixed):
    """cls(**fixed, ...), each other field a key of doc, parsed by its declared
    type's FIELD_TYPES entry and required unless it has a default; a value cls
    refuses is a ConfigError on its path."""
    params = [p for p in fields(cls) if p.name not in fixed]
    required = {p.name for p in params if p.default is MISSING}
    _check_keys(doc, {p.name for p in params}, path, noun, required, needs)
    values = {p.name: FIELD_TYPES[p.type].parse(doc[p.name], path + p.name)
              for p in params if p.name in doc}
    try:
        return cls(**fixed, **values)
    except ValidationError as exc:
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


def _string(value, field: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{field} must be a string, got {value!r}", field=field)


def _numbers(value, field: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{field} must be a list", field=field)
    return tuple(_number(x, field) for x in value)


class FieldType(NamedTuple):
    parse: Callable  # parse(config value, field path) -> field value
    flag: type | None = None  # click type of the flag of a model or weight-family field


# one entry per declared type (annotation text) of a config, model or weight-family field
FIELD_TYPES = {
    "float": FieldType(_number, float),
    "int": FieldType(_integer),
    "int | None": FieldType(lambda v, field: None if v is None else _integer(v, field), int),
    "str": FieldType(_string),
    "str | None": FieldType(lambda v, field: None if v is None else _string(v, field)),
    "tuple[float, ...]": FieldType(_numbers),
    "WeightSequence": FieldType(lambda v, _field: build_weights(v)),
    "ProcessModel": FieldType(lambda v, _field: build_model(v)),
}


def parse_config(doc: dict) -> ExperimentConfig:
    """An ExperimentConfig from a JSON config document; unknown keys are hard
    errors. observable is the one key that sets two fields: a name, or
    {"id": name, "omega": w}."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object", field="<root>")
    obs, omega = doc.get("observable"), None
    if isinstance(obs, dict):
        _check_keys(obs, {"id", "omega"}, "observable.", "observable")
        doc = {**doc, "observable": obs.get("id", ExperimentConfig.observable)}
        omega = _integer(obs["omega"], "observable.omega") if "omega" in obs else None
    return _from_fields(ExperimentConfig, doc, "", "config", "missing config key", omega=omega)


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
        raise ValidationError("per-lag construction needs an linf profile")
    n = _check_n(n)  # an int: numpy integers have no bit_length
    if profile.n < n:
        raise ValidationError(f"profile covers {profile.n} lags, need {n}")
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


class Theorem(NamedTuple):
    """threshold(n, *inputs, x) takes the inputs named by reads (the `bounds` flags);
    inputs(profile, varprof, n, xs), for a bound that reads a dependence profile,
    lists a verification run's inputs per x (None: no admissible k). Both look up
    names here when called, so the names perfbench/layers.py rebinds are traced."""

    reads: tuple[str, ...]
    threshold: Callable
    inputs: Callable | None = None


def _thm1_inputs(profile, varprof, n, xs):
    sel = select_k_star(profile, varprof)
    return [None if sel.k is None else (sel.variance_at_k, sel.k)] * len(xs)


def _thm2_inputs(profile, varprof, n, xs):
    ks = [select_k_star_prime(profile, n, x).k for x in xs]
    return [None if k is None else (varprof.sigma_at(k), k) for k in ks]


THEOREMS = {
    "iid_eq1": Theorem(("sigma_sq",), lambda *a: iid_bernstein_threshold(*a)),
    "thm1": Theorem(("sigma_sq", "k"), lambda *a: thm1_threshold(*a), _thm1_inputs),
    "thm2": Theorem(("sigma_sq", "k"), lambda *a: thm2_threshold(*a), _thm2_inputs),
    "hoeffding": Theorem(("phi",), lambda *a: hoeffding_threshold(*a),
                         lambda profile, varprof, n, xs: [(hoeffding_phi(profile, n),)] * len(xs)),
}


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
    """One ReportRow per x (plus an iid reference row for a profile-reading bound)."""
    check_reps(config.reps)  # before the profiles, whose work grows with n
    model, n, xs, entry = config.model, config.n, config.x_grid, THEOREMS[config.theorem]
    f = observable_for(model, config.observable, config.omega)
    if not xs:
        return []
    varprof = analytic_sigma_profile(model, f, n)
    iid = (varprof.sigma_at(1),)
    claims = [iid] * len(xs) if entry.inputs is None else entry.inputs(
        dependence_profile_for(model, n), varprof, n, xs)

    # one sample of S(f) serves every x
    tail_lane = derive_seed(config.base_seed, _LANE_TAILS)
    sums = per_rep_sums(model, f, n, config.reps, derive_seed(tail_lane, 0), threads)

    def row(tag, theorem, x, inputs) -> ReportRow:
        """The claim's row, checked on the sample; no inputs mark it skipped."""
        bound = math.exp(-x)
        if inputs is None:
            return ReportRow(tag, x, None, None, "", None, bound, None, None, "skipped")
        threshold = theorem.threshold(n, *inputs, x)
        est = tail_from_sums(sums, threshold, x=x, alpha=config.alpha)
        named = dict(zip(theorem.reads, inputs))
        source = varprof.source if "sigma_sq" in named else ""
        return ReportRow(tag, x, named.get("k"), named.get("sigma_sq"), source, threshold, bound,
                         est.p_hat, est.ci_high, "pass" if est.ci_high <= bound else "fail")

    rows = []
    for x, inputs in zip(xs, claims):
        rows.append(row(config.theorem, entry, x, inputs))
        if entry.inputs is not None:
            rows.append(row("iid_eq1_ref", THEOREMS["iid_eq1"], x, iid))
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
    if not targets:
        raise ValidationError("need at least one target", field="targets")
    if not all(0.0 < v < math.inf for v in targets):
        raise ValidationError(f"targets must be positive and finite, got {targets}", field="targets")
    if any(b >= a for a, b in zip(targets, targets[1:])):
        raise ValidationError("targets must be strictly decreasing", field="targets")
    if family == "geometric":
        if not 0.0 < decay < 1.0:
            raise ValidationError(f"need 0 < decay < 1, got {decay}", field="decay")
        kdelta = lambda ks: c * decay**ks
        norm = lambda v: math.log(1.0 / v)
    elif family == "polynomial":
        if not 1.0 < decay < math.inf:
            raise ValidationError(f"need finite decay > 1, got {decay}", field="decay")
        kdelta = lambda ks: c * ks ** (1.0 - decay)
        norm = lambda v: v ** (1.0 / (1.0 - decay))
    else:
        raise ValidationError(f"unknown profile family {family!r}", field="family")
    if not 0.0 < c < math.inf:
        raise ValidationError(f"need finite c > 0, got {c}", field="c")

    # numpy's power on a float64 array: Python's ** can differ in the last bit
    g = lambda k: kdelta(np.array([k], dtype=np.float64))[0]
    ks = [smallest_k_meeting(g, v, _K_CAP) for v in targets]
    # the smallest target needs the largest k*; refuse it before any row
    if ks[-1] is None:
        raise ValidationError(f"no block size up to {_K_CAP} meets target {targets[-1]}",
                              field="targets")
    rows = []
    for v, k in zip(targets, ks):
        # ln(1/v) is 0 at v = 1 and negative above; v^(1/(1-decay)) can overflow
        try:
            ratio = k / norm(v)
        except (OverflowError, ZeroDivisionError):
            ratio = math.nan
        if not 0.0 < ratio < math.inf:
            raise ValidationError(f"target {v} gives no finite, positive {family} ratio "
                                  f"(k* = {k}, decay = {decay})", field="targets")
        rows.append(AsymptoticsRow(target=v, k_star=k, ratio=ratio))
    return rows


def ratio_spread(rows: list[AsymptoticsRow]) -> float:
    """max/min of the normalized ratios; 1.0 means perfectly stable."""
    ratios = [r.ratio for r in rows]
    return max(ratios) / min(ratios)
