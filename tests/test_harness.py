import ast
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from weakdev.bounds import (
    DependenceProfile,
    iid_bernstein_threshold,
    smallest_k_meeting,
    thm1_threshold,
    thm2_threshold,
)
from weakdev.cli import _model_options, emit_report, main, parse_x_grid, write_profile_csv
from weakdev.coefficients import (
    WEIGHTS,
    GeometricWeights,
    PolynomialWeights,
    WeightSequence,
    doubling_map_profile,
    infinite_memory_profile,
    markov_contraction_profile,
    validate_profile,
)
from weakdev.errors import ConfigError, DomainError, ValidationError
import weakdev.estimation as estimation
import weakdev.harness as harness
from weakdev.harness import (
    THEOREMS,
    ExperimentConfig,
    build_model,
    build_weights,
    dependence_profile_for,
    hoeffding_phi,
    load_config,
    mc_variance_profile,
    parse_config,
    ratio_spread,
    run_blocksize_asymptotics,
    run_verification,
)
from weakdev.processes import (
    MODELS,
    BernoulliShiftGeometric,
    DoublingMap,
    IidUniform,
    InfiniteMemoryChain,
    LipschitzKernelChain,
    ProcessModel,
    analytic_sigma_profile,
    observable_for,
)

from test_processes import doubling_sigma_sq

REPORT_HEADER = ["theorem", "x", "k_selected", "variance_used", "variance_source", "threshold",
                 "bound_value", "p_hat", "ci_high", "verdict"]

_BASE_DOC = {
    "model": "doubling-map",
    "n": 100,
    "x_grid": [0.5, 1.0],
    "theorem": "thm2",
    "reps": 100,
    "base_seed": 7,
}


def _doc(**overrides) -> dict:
    doc = dict(_BASE_DOC)
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_defaults():
    cfg = parse_config(_doc())
    assert isinstance(cfg.model, DoublingMap)
    assert cfg.observable == "centered-identity" and cfg.omega == 1
    assert cfg.alpha == 0.01 and cfg.out is None
    assert cfg.x_grid == (0.5, 1.0)


def test_parse_config_observable_forms():
    cfg = parse_config(_doc(observable="centered-cosine"))
    assert cfg.observable == "centered-cosine"
    cfg = parse_config(_doc(observable={"id": "centered-cosine", "omega": 3}))
    assert cfg.observable == "centered-cosine" and cfg.omega == 3
    with pytest.raises(ConfigError) as ei:
        parse_config(_doc(observable={"id": "centered-cosine", "phase": 1}))
    assert ei.value.field == "observable.phase"
    with pytest.raises(ConfigError) as ei:
        parse_config(_doc(observable="sine"))
    assert ei.value.field == "observable"


def test_parse_config_unknown_and_missing_keys():
    with pytest.raises(ConfigError) as ei:
        parse_config(_doc(extra=1))
    assert ei.value.field == "extra"
    doc = _doc()
    del doc["reps"]
    with pytest.raises(ConfigError) as ei:
        parse_config(doc)
    assert ei.value.field == "reps"
    with pytest.raises(ConfigError):
        parse_config("not a dict")


def test_parse_config_field_validation():
    with pytest.raises(ConfigError) as ei:
        parse_config(_doc(theorem="thm3"))
    assert ei.value.field == "theorem"
    with pytest.raises(ConfigError):
        parse_config(_doc(n=0))
    with pytest.raises(ConfigError):
        parse_config(_doc(reps=0))
    with pytest.raises(ConfigError):
        parse_config(_doc(alpha=1.0))
    with pytest.raises(ConfigError):
        parse_config(_doc(x_grid=[0.5, 0.5]))
    with pytest.raises(ConfigError):
        parse_config(_doc(x_grid=[-1.0, 1.0]))
    with pytest.raises(ConfigError):
        parse_config(_doc(x_grid="1,2"))


@pytest.mark.parametrize("omega", [0, -1, 0.0, -(2**70)])
def test_parse_config_refuses_omega_below_one(omega):
    with pytest.raises(ConfigError) as ei:
        parse_config(_doc(observable={"id": "centered-cosine", "omega": omega}))
    assert ei.value.field == "observable.omega"


_NOT_INTEGER = st.one_of(
    st.booleans(),
    st.floats().filter(lambda x: not x.is_integer()),
    st.text(),
    st.lists(st.integers(), max_size=2),
)
_NOT_NUMBER = st.one_of(
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(),
    st.lists(st.floats(), max_size=2),
)


@given(st.sampled_from(["n", "reps", "base_seed"]), _NOT_INTEGER)
def test_parse_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ConfigError) as ei:
        parse_config(_doc(**{field: value}))
    assert ei.value.field == field


def test_parse_config_accepts_integral_floats():
    cfg = parse_config(_doc(n=64.0, reps=10.0, base_seed=3.0))
    assert (cfg.n, cfg.reps, cfg.base_seed) == (64, 10, 3)
    assert all(type(v) is int for v in (cfg.n, cfg.reps, cfg.base_seed))


@given(st.integers(min_value=0, max_value=2), _NOT_NUMBER)
def test_parse_config_rejects_non_finite_or_non_numeric_x(pos, value):
    x_grid = [0.5, 1.0, 2.0]
    x_grid[pos] = value
    with pytest.raises(ConfigError) as ei:
        parse_config(_doc(x_grid=x_grid))
    assert ei.value.field == "x_grid"


_NUMERIC_FIELDS = [
    ("alpha", lambda v: _doc(alpha=v)),
    ("model.kappa", lambda v: _doc(model={"variant": "kernel-chain", "kappa": v})),
    ("model.theta", lambda v: _doc(model={"variant": "bernoulli-shift", "theta": v})),
    ("model.weights.c", lambda v: _doc(model={
        "variant": "infinite-memory", "weights": {"family": "geometric", "c": v, "ratio": 0.5}})),
    ("model.weights.ratio", lambda v: _doc(model={
        "variant": "infinite-memory", "weights": {"family": "geometric", "c": 0.5, "ratio": v}})),
    ("model.weights.power", lambda v: _doc(model={
        "variant": "infinite-memory", "weights": {"family": "polynomial", "c": 0.1, "power": v}})),
]
_INTEGER_FIELDS = [
    ("observable.omega", lambda v: _doc(observable={"id": "centered-cosine", "omega": v})),
    ("model.truncation", lambda v: _doc(model={
        "variant": "bernoulli-shift", "theta": 0.5, "truncation": v})),
    ("model.truncation", lambda v: _doc(model={
        "variant": "infinite-memory", "weights": {"family": "zero"}, "truncation": v})),
]


@given(st.sampled_from(_NUMERIC_FIELDS), _NOT_NUMBER)
def test_parse_config_rejects_non_numeric_parameters(case, value):
    field, make = case
    with pytest.raises(ConfigError) as ei:
        parse_config(make(value))
    assert ei.value.field == field


@given(st.sampled_from(_INTEGER_FIELDS), _NOT_INTEGER)
def test_parse_config_rejects_non_integer_parameters(case, value):
    field, make = case
    with pytest.raises(ConfigError) as ei:
        parse_config(make(value))
    assert ei.value.field == field


@pytest.mark.parametrize("field", ["n", "reps"])
@pytest.mark.parametrize("value", [2**63, 10**30, 10**400])
def test_parse_config_refuses_sizes_numpy_cannot_index(field, value):
    with pytest.raises(ConfigError) as ei:
        parse_config(_doc(**{field: value}))
    assert ei.value.field == field


@pytest.mark.parametrize("bad, edge", [(-1, 0), (2**64, 2**64 - 1)])
def test_parse_config_refuses_a_base_seed_outside_64_bits(bad, edge):
    with pytest.raises(ConfigError) as ei:
        parse_config(_doc(base_seed=bad))
    assert ei.value.field == "base_seed"
    assert parse_config(_doc(base_seed=edge)).base_seed == edge


def test_parse_config_accepts_sizes_up_to_intp_max():
    big = int(np.iinfo(np.intp).max)
    cfg = parse_config(_doc(n=big, reps=big, x_grid=[]))
    assert cfg.n == cfg.reps == big


@pytest.mark.parametrize(
    "doc, field",
    [
        (_doc(model=5), "model"),
        (_doc(model={"variant": "infinite-memory", "weights": 5}), "model.weights"),
        (_doc(out=5), "out"),
        (_doc(model={"variant": ["x"]}), "model.variant"),
        (_doc(model={"variant": "infinite-memory", "weights": {"family": ["g"]}}),
         "model.weights.family"),
    ],
)
def test_parse_config_rejects_wrongly_typed_sections(doc, field):
    with pytest.raises(ConfigError) as ei:
        parse_config(doc)
    assert ei.value.field == field


# valid values for every dataclass field of a model or weight family; c is kept
# small so that every weight family is summable below 1
_FIELD_VALUES = {
    "kappa": st.floats(0.01, 0.99),
    "theta": st.floats(0.01, 0.99),
    "c": st.floats(0.0, 0.1),
    "ratio": st.floats(0.01, 0.9),
    "power": st.floats(1.5, 6.0),
    "truncation": st.none() | st.integers(1, 50),
}
_REGISTRIES = {"variant": MODELS, "family": WEIGHTS}
_REGISTRY_CLASSES = [(tag, name) for tag, reg in _REGISTRIES.items() for name in reg]


def _section(draw, tag: str, name: str):
    """A config section for registry class `name` and the object it must build."""
    cls = _REGISTRIES[tag][name]
    doc, kwargs = {tag: name}, {}
    for f in fields(cls):
        if f.default is not MISSING and draw(st.booleans()):
            continue
        if f.name == "weights":
            doc["weights"], kwargs["weights"] = _section(
                draw, "family", draw(st.sampled_from(sorted(WEIGHTS)))
            )
        else:
            doc[f.name] = kwargs[f.name] = draw(_FIELD_VALUES[f.name])
    try:
        return doc, cls(**kwargs)
    except ValidationError as exc:
        # weights too slow to truncate by default are refused when built
        assume(exc.field != "truncation")
        raise


def _config_for(tag: str, section: dict) -> tuple[dict, str]:
    """A full config holding `section`, and the path prefix of its keys."""
    if tag == "variant":
        return _doc(model=section), "model."
    # an explicit truncation, since not every drawn family has a default one
    model = {"variant": "infinite-memory", "weights": section, "truncation": 8}
    return _doc(model=model), "model.weights."


def _built(cfg, tag: str):
    return cfg.model if tag == "variant" else cfg.model.weights


@pytest.mark.parametrize("tag, name", _REGISTRY_CLASSES)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_registry_config_round_trips(tag, name, data):
    section, want = _section(data.draw, tag, name)
    doc, _ = _config_for(tag, section)
    assert _built(parse_config(json.loads(json.dumps(doc))), tag) == want


@pytest.mark.parametrize("tag, name", _REGISTRY_CLASSES)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_registry_config_unknown_key_names_its_path(tag, name, data):
    section, _ = _section(data.draw, tag, name)
    known = {tag, *(f.name for f in fields(_REGISTRIES[tag][name]))}
    key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in known))
    section[key] = data.draw(_FIELD_VALUES["kappa"])
    doc, prefix = _config_for(tag, section)
    with pytest.raises(ConfigError) as ei:
        parse_config(doc)
    assert ei.value.field == prefix + key


@pytest.mark.parametrize("tag, name", _REGISTRY_CLASSES)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_registry_config_missing_key_names_its_path(tag, name, data):
    section, _ = _section(data.draw, tag, name)
    required = [tag] + [f.name for f in fields(_REGISTRIES[tag][name]) if f.default is MISSING]
    key = data.draw(st.sampled_from(required))
    del section[key]
    doc, prefix = _config_for(tag, section)
    with pytest.raises(ConfigError) as ei:
        parse_config(doc)
    assert ei.value.field == prefix + key


def test_experiment_config_rejects_non_finite_x():
    cfg = parse_config(_doc())
    fields = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
    for x in (math.nan, math.inf):
        with pytest.raises(ConfigError) as ei:
            ExperimentConfig(**{**fields, "x_grid": (0.5, x)})
        assert ei.value.field == "x_grid"


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_doc(out="report.csv")))
    cfg = load_config(path)
    assert cfg.out == "report.csv" and cfg.n == 100


# ---------------------------------------------------------------------------
# model construction


def test_build_model_variants():
    assert isinstance(build_model("iid-uniform"), IidUniform)
    assert isinstance(build_model({"variant": "doubling-map"}), DoublingMap)
    m = build_model({"variant": "kernel-chain", "kappa": 0.7})
    assert isinstance(m, LipschitzKernelChain) and m.kappa == 0.7
    m = build_model({"variant": "bernoulli-shift", "theta": 0.4, "truncation": 9})
    assert isinstance(m, BernoulliShiftGeometric) and m.window == 9
    m = build_model(
        {
            "variant": "infinite-memory",
            "weights": {"family": "geometric", "c": 0.5, "ratio": 0.5},
            "truncation": 6,
        }
    )
    assert isinstance(m, InfiniteMemoryChain) and m.window == 6


def test_build_model_refuses_a_missing_default_truncation(tmp_path):
    model = {"variant": "infinite-memory", "weights": {"family": "polynomial", "c": 0.5, "power": 2.0}}
    with pytest.raises(ValidationError) as ei:
        build_model(model)
    assert ei.value.field == "model.truncation"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_doc(model=model, out=str(tmp_path / "r.csv"))))
    res = CliRunner().invoke(main, ["verify", "--config", str(cfg), "--threads", "1"])
    assert res.exit_code == 1 and "truncation" in res.output
    assert not (tmp_path / "r.csv").exists()
    # an explicit truncation still builds
    assert build_model(dict(model, truncation=12)).window == 12


def test_build_model_errors():
    with pytest.raises(ConfigError) as ei:
        build_model({"variant": "brownian"})
    assert ei.value.field == "model.variant"
    with pytest.raises(ConfigError) as ei:
        build_model({"variant": "kernel-chain"})
    assert ei.value.field == "model.kappa"
    with pytest.raises(ConfigError) as ei:
        build_model({"variant": "doubling-map", "theta": 0.5})
    assert ei.value.field == "model.theta"
    with pytest.raises(ConfigError) as ei:
        build_model({})
    assert ei.value.field == "model.variant"


def test_build_weights_errors():
    assert build_weights({"family": "zero"}).total == 0.0
    with pytest.raises(ConfigError) as ei:
        build_weights({"family": "harmonic"})
    assert ei.value.field == "model.weights.family"
    with pytest.raises(ConfigError) as ei:
        build_weights({"family": "geometric", "c": 0.5})
    assert ei.value.field == "model.weights.ratio"
    with pytest.raises(ConfigError) as ei:
        build_weights({"family": "geometric", "c": 0.5, "ratio": 0.5, "power": 2})
    assert ei.value.field == "model.weights.power"
    with pytest.raises(ConfigError):
        build_weights({})


_GEOMETRIC = {"family": "geometric", "c": 0.5, "ratio": 0.5}


@pytest.mark.parametrize(
    "model, field",
    [
        ({"variant": "kernel-chain", "kappa": 1.5}, "model.kappa"),
        ({"variant": "bernoulli-shift", "theta": 0.0}, "model.theta"),
        ({"variant": "bernoulli-shift", "theta": 0.5, "truncation": 0}, "model.truncation"),
        ({"variant": "infinite-memory", "weights": _GEOMETRIC, "truncation": -2},
         "model.truncation"),
        ({"variant": "infinite-memory", "weights": dict(_GEOMETRIC, c=-0.1)}, "model.weights.c"),
        ({"variant": "infinite-memory", "weights": dict(_GEOMETRIC, ratio=1.5)},
         "model.weights.ratio"),
        ({"variant": "infinite-memory",
          "weights": {"family": "polynomial", "c": 0.5, "power": 1.0}}, "model.weights.power"),
        ({"variant": "infinite-memory", "weights": dict(_GEOMETRIC, c=1.0)}, "model.weights"),
    ],
)
def test_parse_config_names_the_path_of_an_out_of_range_parameter(model, field):
    with pytest.raises(ConfigError) as ei:
        parse_config(_doc(model=model))
    assert ei.value.field == field


# ---------------------------------------------------------------------------
# harness glue


def test_dependence_profiles_by_model():
    n = 30
    iid = dependence_profile_for(IidUniform(), n)
    assert iid.kind == "linf" and np.all(iid.delta == 0.0)

    dbl = dependence_profile_for(DoublingMap(), n)
    assert np.array_equal(dbl.delta, doubling_map_profile(n).delta)

    ker = dependence_profile_for(LipschitzKernelChain(kappa=0.6), n)
    assert np.array_equal(ker.delta, markov_contraction_profile(0.6, n).delta)

    th = 0.5
    shift = dependence_profile_for(BernoulliShiftGeometric(theta=th, truncation=20), n)
    for r in range(1, n + 1):
        # block tail: r delta'_r = theta^r / (1 - theta), clipped at r
        assert r * shift.at(r) == pytest.approx(min(th**r / (1.0 - th), float(r)), rel=1e-12)

    w = GeometricWeights(0.5, 0.5)
    mem = dependence_profile_for(InfiniteMemoryChain(weights=w, truncation=6), n)
    assert np.array_equal(mem.delta, infinite_memory_profile(w, n).delta)

    for p in (iid, dbl, ker, shift, mem):
        validate_profile(p)


def test_dependence_profile_for_refuses_a_model_it_has_no_profile_for():
    class Toy(ProcessModel):
        name = "toy"

    with pytest.raises(ValidationError, match="Toy") as ei:
        dependence_profile_for(Toy(), 10)
    assert ei.value.field == "model"


def test_harness_names_no_model_class():
    # each model owns its profile (linf_profile), so harness needs no branch per model
    tree = ast.parse(Path(harness.__file__).read_text())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not named & {cls.__name__ for cls in MODELS.values()}


def test_hoeffding_phi_zeros_and_dyadic():
    n = 8
    zeros = dependence_profile_for(IidUniform(), n)
    assert np.all(hoeffding_phi(zeros, n) == 0.0)

    prof = doubling_map_profile(n)
    phis = hoeffding_phi(prof, n)
    assert phis.shape == (n - 1,)
    for j in range(1, n):
        L = n - j
        total = sum((1 << p) * prof.at(1 << p) for p in range(L.bit_length()) if (1 << p) <= L)
        assert phis[j - 1] == pytest.approx(min(1.0, total / L), abs=1e-15)


def test_hoeffding_phi_requires_linf():
    phi_kind = validate_profile(
        dependence_profile_for(DoublingMap(), 8)
    )
    from weakdev.bounds import DependenceProfile

    with pytest.raises(DomainError):
        hoeffding_phi(DependenceProfile(delta=phi_kind.delta, kind="phi"), 8)
    with pytest.raises(DomainError):
        hoeffding_phi(doubling_map_profile(4), 8)


def _hoeffding_phi_reference(profile, n: int) -> np.ndarray:
    """The per-j loop hoeffding_phi replaced: dyadic terms summed left to right."""
    phis = np.empty(n - 1)
    for j in range(1, n):
        L = n - j
        total = 0.0
        p = 0
        while (1 << p) <= L:
            r = 1 << p
            total += r * profile.at(r)
            p += 1
        phis[j - 1] = min(1.0, total / L)
    return phis


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hoeffding_phi_matches_reference_loop_bit_for_bit(data):
    n = data.draw(st.integers(min_value=1, max_value=600))
    delta = data.draw(arrays(np.float64, n, elements=st.floats(min_value=0.0, max_value=1.0)))
    profile = DependenceProfile(delta=np.sort(delta)[::-1], kind="linf")
    assert np.array_equal(hoeffding_phi(profile, n), _hoeffding_phi_reference(profile, n))


@pytest.mark.parametrize(
    "w", [GeometricWeights(0.5, 0.5), PolynomialWeights(0.25, 3.0)]
)
def test_hoeffding_phi_matches_reference_at_n_8000(w):
    profile = infinite_memory_profile(w, 8000)
    assert np.array_equal(hoeffding_phi(profile, 8000), _hoeffding_phi_reference(profile, 8000))


def test_mc_variance_profile_step_fill():
    model = DoublingMap()
    f = observable_for(model, "centered-identity")
    prof = mc_variance_profile(model, f, 6, reps=500, seed=9)
    assert prof.source == "estimated"
    assert prof.n == 6
    # grid {1, 2, 4, 6}: k = 3 reuses k = 2, k = 5 reuses k = 4
    assert prof.sigma_at(3) == prof.sigma_at(2)
    assert prof.sigma_at(5) == prof.sigma_at(4)
    assert prof.sigma_at(6) != prof.sigma_at(4)


# ---------------------------------------------------------------------------
# verification runs


def test_run_verification_empty_grid():
    cfg = parse_config(_doc(x_grid=[]))
    assert run_verification(cfg) == []


def test_run_verification_thm2_doubling():
    cfg = parse_config(
        _doc(n=1000, x_grid=[0.5, 1.0, 2.0], theorem="thm2", reps=500, base_seed=123)
    )
    rows = run_verification(cfg)
    assert [r.theorem for r in rows] == ["thm2", "iid_eq1_ref"] * 3
    main_rows = [r for r in rows if r.theorem == "thm2"]
    assert [r.k_selected for r in main_rows] == [6, 5, 4]
    assert main_rows[0].threshold == pytest.approx(23.784235376052372, abs=1e-12)
    assert main_rows[1].threshold == pytest.approx(33.93355773061366, abs=1e-12)
    assert main_rows[2].threshold == pytest.approx(47.800992435478314, abs=1e-12)
    for r in main_rows:
        assert r.variance_source == "analytic"
        assert r.variance_used == pytest.approx(doubling_sigma_sq(r.k_selected), abs=1e-15)
        assert r.bound_value == pytest.approx(math.exp(-r.x), abs=1e-15)
        assert r.verdict == "pass"
    ref_rows = [r for r in rows if r.theorem == "iid_eq1_ref"]
    assert all(r.threshold == iid_bernstein_threshold(1000, 1.0 / 12.0, r.x) for r in ref_rows)
    # the iid formula is only a reference on dependent data, yet the process
    # does not exceed it at x = 2: with S = (N - n/2) + (X_0 - X_n), N ~
    # Binomial(n, 1/2), the exact bracket puts P(S >= 18.591) in [0.1087,
    # 0.1342], below e^-2 = 0.1353. The fail is the Clopper-Pearson upper
    # limit at 500 replications, which cannot certify a margin that thin
    assert ref_rows[2].verdict == "fail"


def test_run_verification_thm1_doubling():
    cfg = parse_config(_doc(n=1000, x_grid=[1.0], theorem="thm1", reps=200, base_seed=5))
    rows = run_verification(cfg)
    assert rows[0].theorem == "thm1" and rows[0].k_selected == 1
    # envelope at k* = 1 is the largest sigma_k^2, reached at k = n
    sbar = doubling_sigma_sq(1000)
    assert rows[0].variance_used == pytest.approx(sbar, abs=1e-15)
    assert rows[0].threshold == pytest.approx(thm1_threshold(1000, sbar, 1, 1.0), abs=1e-12)
    assert rows[0].variance_used == pytest.approx(0.24966666666666665, abs=1e-15)


def test_run_verification_iid_eq1_has_no_reference_row():
    cfg = parse_config(
        _doc(model="iid-uniform", n=50, x_grid=[1.0], theorem="iid_eq1", reps=300)
    )
    rows = run_verification(cfg)
    assert [r.theorem for r in rows] == ["iid_eq1"]
    assert rows[0].variance_used == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert rows[0].variance_source == "analytic"
    assert rows[0].k_selected is None


def test_run_verification_hoeffding_iid():
    cfg = parse_config(
        _doc(model="iid-uniform", n=200, x_grid=[2.0], theorem="hoeffding", reps=300)
    )
    rows = run_verification(cfg)
    hrow = rows[0]
    assert hrow.theorem == "hoeffding"
    assert hrow.threshold == pytest.approx(math.sqrt(200.0), abs=1e-12)  # all phi_j = 0
    assert hrow.k_selected is None and hrow.variance_used is None
    assert hrow.variance_source == ""


def test_run_verification_skips_when_no_block_size():
    # kappa so close to 1 that no k <= n admits a valid block size
    cfg = parse_config(
        _doc(
            model={"variant": "kernel-chain", "kappa": 0.999},
            n=50,
            x_grid=[1.0],
            theorem="thm1",
            reps=50,
        )
    )
    rows = run_verification(cfg)
    assert rows[0].theorem == "thm1" and rows[0].verdict == "skipped"
    assert rows[0].threshold is None and rows[0].p_hat is None and rows[0].ci_high is None
    assert rows[0].k_selected is None and rows[0].variance_used is None
    assert rows[1].theorem == "iid_eq1_ref"
    assert rows[1].variance_source == "analytic"


# the harness names each theorem calls; perfbench/layers.py rebinds every one of
# them on harness, so the table must look them up there when it runs
_THEOREM_CALLS = {
    "iid_eq1": {"iid_bernstein_threshold"},
    "thm1": {"dependence_profile_for", "select_k_star", "thm1_threshold",
             "iid_bernstein_threshold"},
    "thm2": {"dependence_profile_for", "select_k_star_prime", "thm2_threshold",
             "iid_bernstein_threshold"},
    "hoeffding": {"dependence_profile_for", "hoeffding_phi", "hoeffding_threshold",
                  "iid_bernstein_threshold"},
}


@pytest.mark.parametrize("theorem", THEOREMS)
def test_run_verification_calls_the_names_rebound_on_harness(monkeypatch, theorem):
    names = ("select_k_star", "select_k_star_prime", "hoeffding_phi", "dependence_profile_for",
             "iid_bernstein_threshold", "thm1_threshold", "thm2_threshold",
             "hoeffding_threshold")
    called = set()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            called.add(name)
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    cfg = parse_config(_doc(n=16, x_grid=[0.5, 1.0], theorem=theorem, reps=50))
    rows = run_verification(cfg)
    assert all(r.verdict != "skipped" for r in rows)
    assert called == _THEOREM_CALLS[theorem]


def test_thm1_computes_one_exact_profile_out_to_n(monkeypatch):
    real = harness.analytic_sigma_profile
    profiles = []

    def recording(model, f, n):
        profiles.append((n, real(model, f, n)))
        return profiles[-1][1]

    monkeypatch.setattr(harness, "analytic_sigma_profile", recording)
    cfg = parse_config(
        _doc(model={"variant": "kernel-chain", "kappa": 0.5}, n=16, x_grid=[1.0, 2.0],
             theorem="thm1", reps=50)
    )
    rows = run_verification(cfg)
    assert [n for n, _ in profiles] == [16]
    # the reference rows carry that profile's k = 1 variance
    prof = profiles[0][1]
    refs = [r.variance_used for r in rows if r.theorem == "iid_eq1_ref"]
    assert refs == [prof.sigma_at(1)] * 2


_GEOMETRIC_MEMORY = {
    "variant": "infinite-memory", "weights": {"family": "geometric", "c": 0.5, "ratio": 0.5}
}


@pytest.mark.parametrize(
    "model, theorem, source",
    [
        ("doubling-map", "thm2", "analytic"),
        ({"variant": "kernel-chain", "kappa": 0.7}, "thm2", "analytic"),
        (_GEOMETRIC_MEMORY, "thm1", "analytic"),
    ],
)
def test_rows_do_not_depend_on_the_other_x(model, theorem, source):
    # one tail sample and one variance profile serve every x, so each x's rows
    # are those of a config that asks for that x alone
    doc = _doc(model=model, theorem=theorem, n=200, reps=400, base_seed=31)
    rows = run_verification(parse_config(dict(doc, x_grid=[0.5, 1.0, 2.0])))
    assert {r.variance_source for r in rows} == {source}
    for x in (0.5, 1.0, 2.0):
        assert [r for r in rows if r.x == x] == run_verification(parse_config(dict(doc, x_grid=[x])))


@pytest.mark.parametrize(
    "model, theorem, x_grid, sigma_calls",
    [
        ("doubling-map", "thm2", [0.5, 1.0, 2.0], 0),
        ({"variant": "kernel-chain", "kappa": 0.7}, "thm2", [0.5, 1.0, 2.0], 0),
        ({"variant": "kernel-chain", "kappa": 0.7}, "thm1", [0.5, 1.0, 2.0], 0),
        ({"variant": "kernel-chain", "kappa": 0.7}, "hoeffding", [0.5, 1.0], 0),
        ("iid-uniform", "iid_eq1", [0.5, 1.0], 0),
        (_GEOMETRIC_MEMORY, "iid_eq1", [0.5, 1.0], 0),
        ({"variant": "kernel-chain", "kappa": 0.7}, "thm2", [], 0),
    ],
)
def test_run_verification_simulates_each_sample_once(monkeypatch, model, theorem, x_grid,
                                                     sigma_calls):
    calls = {"per_rep_sums": 0, "estimate_sigma_profile": 0}
    for name in calls:
        def counting(*args, _real=getattr(harness, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    cfg = parse_config(_doc(model=model, theorem=theorem, x_grid=x_grid, n=64, reps=50))
    rows = run_verification(cfg)
    assert calls == {"per_rep_sums": 1 if x_grid else 0, "estimate_sigma_profile": sigma_calls}
    assert {r.x for r in rows} == set(x_grid)


@pytest.mark.parametrize("theorem", THEOREMS)
@pytest.mark.parametrize("observable", ["centered-identity", {"id": "centered-cosine", "omega": 3}],
                         ids=["identity", "cosine"])
@pytest.mark.parametrize("model", ["iid-uniform", "doubling-map",
                                   {"variant": "kernel-chain", "kappa": 0.7},
                                   {"variant": "bernoulli-shift", "theta": 0.5}, _GEOMETRIC_MEMORY],
                         ids=["iid", "doubling", "kernel", "shift", "memory"])
def test_run_verification_estimates_no_variance(monkeypatch, model, observable, theorem):
    # every row's variance is read off the exact profile; nothing is estimated
    def no_run(*_args, **_kwargs):
        raise AssertionError("verify estimated a variance")

    monkeypatch.setattr(harness, "estimate_sigma_profile", no_run)
    monkeypatch.setattr(harness, "mc_variance_profile", no_run)
    cfg = parse_config(_doc(model=model, observable=observable, theorem=theorem,
                            x_grid=[0.5, 1.0, 2.0], n=64, reps=50))
    prof = analytic_sigma_profile(cfg.model, observable_for(cfg.model, cfg.observable, cfg.omega),
                                  cfg.n)
    rows = [r for r in run_verification(cfg) if r.variance_used is not None]
    assert rows and {r.variance_source for r in rows} == {"analytic"}
    for r in rows:
        if r.theorem == "thm1":
            assert r.variance_used == prof.envelope[r.k_selected - 1]
        elif r.theorem == "thm2":
            assert r.variance_used == prof.sigma_at(r.k_selected)
        else:
            assert r.variance_used == prof.sigma_at(1)


def test_run_verification_deterministic_and_thread_invariant():
    cfg = parse_config(_doc(n=64, x_grid=[1.0], theorem="thm2", reps=300))
    a = run_verification(cfg)
    b = run_verification(cfg)
    c = run_verification(cfg, threads=4)
    assert a == b == c


# ---------------------------------------------------------------------------
# report emission


def test_emit_report_roundtrip(tmp_path):
    cfg = parse_config(_doc(n=64, x_grid=[1.0], theorem="thm2", reps=200))
    rows = run_verification(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rows, p1)
    emit_report(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    with open(p1, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == REPORT_HEADER
    assert len(got) == len(rows) + 1
    assert float(got[1][1]) == rows[0].x
    assert float(got[1][5]) == rows[0].threshold


def test_emit_report_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], path)
    assert path.read_text() == ",".join(REPORT_HEADER) + "\n"


def test_emit_report_wraps_oserror(tmp_path):
    bad = tmp_path / "missing-dir" / "x.csv"
    with pytest.raises(OSError, match="cannot write"):
        emit_report([], bad)


# ---------------------------------------------------------------------------
# block-size asymptotics


def test_asymptotics_geometric_stable():
    targets = [10.0**-e for e in range(2, 9)]
    rows = run_blocksize_asymptotics("geometric", targets, c=4.0 / 9.0, decay=0.5)
    assert [r.target for r in rows] == targets
    assert all(r.k_star >= 1 for r in rows)
    assert ratio_spread(rows) <= 1.2
    # k* ~ ln(1/v) / ln(1/decay); the normalized ratio approaches 1/ln 2
    assert rows[-1].ratio == pytest.approx(1.0 / math.log(2.0), rel=0.05)


def test_asymptotics_polynomial_power_law():
    # delta_k = c k^-3 gives k delta_k = c k^-2, so k* ~ sqrt(c/v):
    # dividing v by 4 doubles the minimal block size
    rows = run_blocksize_asymptotics("polynomial", [1e-2, 2.5e-3, 6.25e-4], c=1.0, decay=3.0)
    ks = [r.k_star for r in rows]
    assert ks[1] == pytest.approx(2 * ks[0], abs=1.0)
    assert ks[2] == pytest.approx(2 * ks[1], abs=1.0)
    assert ratio_spread(rows) <= 1.2


def test_asymptotics_trivial_target():
    rows = run_blocksize_asymptotics("geometric", [0.6], c=1.0, decay=0.5)
    assert rows[0].k_star == 1  # k delta_k = 0.5 at k = 1 already meets 0.6


def test_asymptotics_validation():
    with pytest.raises(DomainError):
        run_blocksize_asymptotics("geometric", [1e-2, 1e-2])
    with pytest.raises(DomainError):
        run_blocksize_asymptotics("geometric", [-1.0])
    with pytest.raises(DomainError):
        run_blocksize_asymptotics("exponential", [1e-2])
    with pytest.raises(DomainError):
        run_blocksize_asymptotics("geometric", [1e-2], decay=1.0)
    with pytest.raises(DomainError):
        run_blocksize_asymptotics("polynomial", [1e-2], decay=1.0)
    with pytest.raises(DomainError):
        run_blocksize_asymptotics("geometric", [1e-2], c=0.0)


# Unrefused, a NaN target or c passes every comparison as k* = 1, and an
# infinite target ends in math.log(0.0); the message check tells the boundary
# refusal apart from those.
_NON_FINITE_ASYMPTOTICS = [
    (("geometric", [math.nan]), {}, "targets"),
    (("geometric", [math.inf]), {}, "targets"),
    (("geometric", [1e-2, math.nan]), {}, "targets"),
    (("geometric", [1e-2]), {"c": math.nan}, "c"),
    (("geometric", [1e-2]), {"c": math.inf}, "c"),
    (("geometric", [1e-2]), {"decay": math.nan}, "decay"),
    (("polynomial", [1e-2]), {"decay": math.nan}, "decay"),
    (("polynomial", [1e-2]), {"decay": math.inf}, "decay"),
]


@pytest.mark.parametrize("args, kwargs, field", _NON_FINITE_ASYMPTOTICS)
def test_asymptotics_refuses_non_finite_input(args, kwargs, field):
    with pytest.raises(DomainError, match="finite|< 1") as ei:
        run_blocksize_asymptotics(*args, **kwargs)
    assert ei.value.field == field


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--targets", "nan"], "--targets"),
        (["--targets", "inf"], "--targets"),
        (["--targets", "1e-2", "--c", "nan"], "--c"),
        (["--targets", "1e-2", "--c", "inf"], "--c"),
    ],
)
def test_cli_asymptotics_refuses_non_finite_input(flags, named):
    res = CliRunner().invoke(main, ["asymptotics", "--family", "geometric", "--decay", "0.5", *flags])
    assert res.exit_code == 2 and named in res.output and "finite" in res.output
    assert "Traceback" not in res.output


def _count_evaluations(monkeypatch) -> list[list[int]]:
    """Route the harness's search through a wrapper that logs, per search, each
    k at which k delta_k is evaluated."""
    searches = []

    def search(g, target, cap):
        ks = []
        searches.append(ks)
        return smallest_k_meeting(lambda k: ks.append(k) or g(k), target, cap)

    monkeypatch.setattr(harness, "smallest_k_meeting", search)
    return searches


def _assert_refused_by_search(searches, cap):
    # a regression to a scan evaluates nothing through the search, or ~cap times
    assert 1 <= len(searches[-1]) <= 2 * math.log2(cap) + 2


# k* = 10^30000 and 6.9e12: a scan would visit every block size up to the cap
# of 2^30 before it refused; the search doubles past the cap in 31 evaluations.
@pytest.mark.parametrize(
    "family, target, c, decay",
    [
        ("polynomial", 1e-3, 1.0, 1.0001),  # k* = 10^30000
        ("geometric", 1e-3, 1.0, 1.0 - 1e-12),  # k* = 6.9e12
    ],
)
def test_asymptotics_refuses_a_block_size_above_the_scan_cap(monkeypatch, family, target, c,
                                                             decay):
    searches = _count_evaluations(monkeypatch)
    with pytest.raises(DomainError, match="no block size up to 1073741824 meets target") as ei:
        run_blocksize_asymptotics(family, [1.0, target], c=c, decay=decay)
    assert ei.value.field == "targets"
    _assert_refused_by_search(searches, harness._K_CAP)
    res = CliRunner().invoke(main, ["asymptotics", "--family", family, "--decay", repr(decay),
                                    "--c", repr(c), "--targets", repr(target)])
    assert res.exit_code == 2 and "--targets" in res.output
    assert "no block size up to 1073741824 meets target" in res.output


@pytest.mark.parametrize(
    "family, decay, at_cap, k_at_cap, above_cap",
    [
        # k delta_k = 1/k, so k* = 1/v exactly
        ("polynomial", 2.0, 2.0**-12, 1 << 12, 1.0 / 4097),
        # k* = ln(1/v) / ln(1/decay)
        ("geometric", 0.999, 0.999**4090, 4090, 0.999**4200),
    ],
)
def test_asymptotics_scans_up_to_the_cap_and_refuses_beyond_it(monkeypatch, family, decay, at_cap,
                                                               k_at_cap, above_cap):
    monkeypatch.setattr(harness, "_K_CAP", 1 << 12)
    (row,) = run_blocksize_asymptotics(family, [at_cap], decay=decay)
    assert abs(row.k_star - k_at_cap) <= (0 if family == "polynomial" else 1)
    searches = _count_evaluations(monkeypatch)
    with pytest.raises(DomainError, match="no block size up to 4096 meets target"):
        run_blocksize_asymptotics(family, [above_cap], decay=decay)
    _assert_refused_by_search(searches, 1 << 12)


# The exhaustive scan that found k* before the doubling-and-bisection search,
# kept verbatim as an oracle: every k from 1 upward, in numpy chunks.
_SCAN_CAP = 1 << 30
_SCAN_CHUNK = 1 << 22


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


@settings(max_examples=60, deadline=None)
@given(
    profile=st.one_of(
        st.tuples(st.just("geometric"), st.floats(1e-3, 1.0 - 1e-6)),
        # nearer 1, v^(1/(1-decay)) overflows: see the refusal below
        st.tuples(st.just("polynomial"), st.floats(1.05, 9.0)),
    ),
    c=st.floats(1e-3, 1e3),
    k0=st.integers(1, 1 << 20),
    slack=st.one_of(st.just(1.0), st.floats(1.0, 2.0)),
)
# a flat tail: k delta_k = k^(-1e-9) is equal in float64 over long runs of k
@example(profile=("polynomial", 1.0 + 1e-9), c=1.0, k0=1 << 20, slack=1.0)
def test_asymptotics_k_star_matches_the_exhaustive_scan(profile, c, k0, slack):
    family, decay = profile
    if family == "geometric":
        kdelta = lambda ks: c * decay**ks
        k0 = min(k0, max(1, int(700.0 / -math.log(decay))))  # keep k0 delta_k0 > 0
    else:
        kdelta = lambda ks: c * ks ** (1.0 - decay)
    # the target is k0 delta_k0 times a slack >= 1, so the scan stops by k0 <= 2^20
    v = float(kdelta(np.array([k0], dtype=np.float64))[0]) * slack
    assume(family == "polynomial" or v < 1.0)  # ln(1/v) <= 0: see the refusal below
    (row,) = run_blocksize_asymptotics(family, [v], c=c, decay=decay)
    assert row.k_star == _scan_first_k(kdelta, v)


# The normalized ratio would divide by ln(1/v) = 0 at a geometric target of 1,
# and v^(1/(1-decay)) overflows for a polynomial decay near 1 at a k* within
# the cap; each must be a row with a finite ratio or a refusal on targets, not
# an arithmetic error (a traceback from the CLI).
@pytest.mark.parametrize(
    "family, target, c, decay",
    [("geometric", 1.0, 2.0, 0.5), ("polynomial", 0.5, 0.5, 1.000001)],
)
def test_asymptotics_ratio_is_a_row_or_a_refusal(family, target, c, decay):
    try:
        (row,) = run_blocksize_asymptotics(family, [target], c=c, decay=decay)
    except DomainError as exc:
        assert exc.field == "targets"
    else:
        assert math.isfinite(row.ratio)


@pytest.mark.parametrize(
    "family, target, c, decay",
    [("geometric", 1.0, 2.0, 0.5), ("geometric", 2.0, 2.0, 0.5),
     ("polynomial", 0.5, 0.5, 1.000001), ("polynomial", 1e300, 0.5, 1.05)],
)
def test_cli_asymptotics_refuses_a_ratio_it_cannot_normalize(family, target, c, decay):
    # ln(1/v) is 0 at v = 1 and negative above it (a negative ratio was
    # printed), and v^(1/(1-decay)) overflows or underflows to 0
    res = CliRunner().invoke(main, ["asymptotics", "--family", family, "--c", repr(c),
                                    "--decay", repr(decay), "--targets", repr(target)])
    assert res.exit_code == 2 and "Invalid value for --targets" in res.output, res.output
    assert "gives no finite, positive" in res.output and "Traceback" not in res.output


# ---------------------------------------------------------------------------
# CLI


def test_parse_x_grid_forms():
    assert parse_x_grid("0.5,1,2") == [0.5, 1.0, 2.0]
    assert parse_x_grid("1:3:0.5") == [1.0, 1.5, 2.0, 2.5, 3.0]
    assert parse_x_grid("2") == [2.0]
    import click

    with pytest.raises(click.BadParameter):
        parse_x_grid("1:0.5:1")
    with pytest.raises(click.BadParameter):
        parse_x_grid("abc")
    with pytest.raises(click.BadParameter):
        parse_x_grid("")


@pytest.mark.parametrize("text", ["0:inf:1", "-inf:0:1", "nan:1:1", "0:nan:1", "0:1:nan",
                                  "1,inf", "-inf", "nan,1"])
def test_parse_x_grid_refuses_non_finite_ranges(text):
    import click

    with pytest.raises(click.BadParameter):
        parse_x_grid(text)
    res = CliRunner().invoke(main, ["bounds", "--theorem", "iid_eq1", "--n", "10",
                                    "--sigma-sq", "0.1", "--x-grid", text])
    assert res.exit_code == 2 and "--x-grid" in res.output


def test_parse_x_grid_caps_the_points_of_a_range():
    import click

    assert len(parse_x_grid("0:999999:1")) == 10**6
    with pytest.raises(click.BadParameter, match="more than 1000000 points"):
        parse_x_grid("0:1000000:1")


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_refuses_an_x_grid_range_too_long_to_build():
    # 10^18 points: expanding them would run until memory ran out, so run the
    # CLI in its own interpreter with a time limit and a 1 GiB address space
    res = subprocess.run(
        [sys.executable, "-m", "weakdev.cli", "bounds", "--theorem", "iid_eq1", "--n", "10",
         "--sigma-sq", "0.1", "--x-grid", "0:1e9:1e-9"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert res.returncode == 2 and "more than 1000000 points" in res.stderr, res.stderr


def test_importing_the_cli_leaves_scipy_unloaded():
    # clopper_pearson imports scipy.special when first called, so a command
    # that computes no interval starts without scipy
    code = "import sys, weakdev.cli; print(sorted(m for m in sys.modules if m[:5] == 'scipy'))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_src_env(), timeout=60)
    assert res.returncode == 0 and res.stdout == "[]\n", res.stderr


@pytest.mark.parametrize(
    "args, named",
    [
        (["--theorem", "iid_eq1", "--sigma-sq", "nan", "--x-grid", "1"], "sigma1_sq"),
        (["--theorem", "thm2", "--sigma-sq", "nan", "--k", "2", "--x-grid", "1"],
         "sigma_sq_at_kp"),
        (["--theorem", "thm1", "--sigma-sq", "0.1", "--k", "2", "--x-grid", "nan"], "need x"),
        (["--theorem", "hoeffding", "--phi", "nan,0.1", "--x-grid", "1"], "phi[1]"),
    ],
)
def test_cli_bounds_refuses_nan(args, named):
    res = CliRunner().invoke(main, ["bounds", "--n", "3", *args])
    assert res.exit_code != 0 and named in res.output and "nan" in res.output


def test_cli_bounds_matches_library():
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["bounds", "--theorem", "iid_eq1", "--n", "1000", "--x-grid", "1",
         "--sigma-sq", str(1.0 / 12.0)],
    )
    assert res.exit_code == 0
    assert repr(iid_bernstein_threshold(1000, 1.0 / 12.0, 1.0)) in res.output
    res = runner.invoke(
        main,
        ["bounds", "--theorem", "thm2", "--n", "1000", "--x-grid", "1",
         "--sigma-sq", str(doubling_sigma_sq(5)), "--k", "5"],
    )
    assert res.exit_code == 0
    assert repr(thm2_threshold(1000, doubling_sigma_sq(5), 5, 1.0)) in res.output


def test_cli_bounds_requires_theorem_inputs():
    runner = CliRunner()
    res = runner.invoke(main, ["bounds", "--theorem", "thm2", "--n", "10", "--x-grid", "1"])
    assert res.exit_code != 0
    # the message names every input the theorem reads, also when only one is missing
    for theorem, given, message in [
        ("iid_eq1", [], "iid_eq1 needs --sigma-sq"),
        ("thm1", [], "thm1 needs --sigma-sq and --k"),
        ("thm1", ["--sigma-sq", "0.1"], "thm1 needs --sigma-sq and --k"),
        ("thm1", ["--k", "2"], "thm1 needs --sigma-sq and --k"),
        ("thm2", [], "thm2 needs --sigma-sq and --k"),
        ("thm2", ["--sigma-sq", "0.1"], "thm2 needs --sigma-sq and --k"),
        ("thm2", ["--k", "2"], "thm2 needs --sigma-sq and --k"),
        ("hoeffding", [], "hoeffding needs --phi"),
    ]:
        res = runner.invoke(main, ["bounds", "--theorem", theorem, "--n", "10", "--x-grid", "1",
                                   *given])
        assert res.exit_code == 2
        assert res.output.splitlines()[-1] == f"Error: {message}"


@pytest.mark.parametrize("theorem, flags, stray", [
    ("iid_eq1", ["--sigma-sq", "0.1", "--k", "5", "--phi", "oops"], "--k"),
    ("iid_eq1", ["--sigma-sq", "0.1", "--phi", "0.5"], "--phi"),
    ("thm1", ["--sigma-sq", "0.1", "--k", "2", "--phi", "0.5"], "--phi"),
    ("thm2", ["--sigma-sq", "0.1", "--k", "2", "--phi", "0.5"], "--phi"),
    ("hoeffding", ["--phi", "0.5", "--sigma-sq", "0.1"], "--sigma-sq"),
    ("hoeffding", ["--phi", "0.5", "--k", "1"], "--k"),
])
def test_cli_bounds_refuses_a_flag_its_theorem_does_not_read(theorem, flags, stray):
    res = CliRunner().invoke(main, ["bounds", "--theorem", theorem, "--n", "2", "--x-grid", "1",
                                    *flags])
    assert res.exit_code == 2
    assert res.output.splitlines()[-1] == f"Error: {stray} is not a flag of theorem {theorem!r}"


@pytest.mark.parametrize("theorem", ["thm1", "thm2"])
def test_cli_bounds_refuses_a_block_larger_than_n(theorem):
    res = CliRunner().invoke(main, ["bounds", "--theorem", theorem, "--n", "10", "--k", "100",
                                    "--sigma-sq", "0.1", "--x-grid", "1"])
    assert res.exit_code == 1
    assert res.output == "Error: block size k = 100 exceeds n = 10\n"
    res = CliRunner().invoke(main, ["bounds", "--theorem", theorem, "--n", "10", "--k", "10",
                                    "--sigma-sq", "0.1", "--x-grid", "1"])
    assert res.exit_code == 0, res.output


def test_cli_bounds_refuses_a_phi_entry_past_n_minus_1_outside_0_1():
    # phi_n never enters the Hoeffding sum, but every entry given is checked
    res = CliRunner().invoke(main, ["bounds", "--theorem", "hoeffding", "--n", "3",
                                    "--phi", "0.5,0.5,7", "--x-grid", "1"])
    assert res.exit_code == 1
    assert res.output == "Error: phi[3] = 7.0 outside [0, 1]\n"


def test_cli_profile_writes_csv(tmp_path):
    out = tmp_path / "prof.csv"
    runner = CliRunner()
    res = runner.invoke(
        main, ["profile", "--model", "doubling-map", "--n", "8", "--out", str(out)]
    )
    assert res.exit_code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    prof = doubling_map_profile(8)
    assert len(rows) == 9
    assert float(rows[1][1]) == prof.at(1)


_PROFILE_FLAGS = [
    ("iid-uniform", [], {}),
    ("doubling-map", [], {}),
    ("kernel-chain", ["--kappa", "0.6"], {"kappa": 0.6}),
    ("bernoulli-shift", ["--theta", "0.45", "--truncation", "17"],
     {"theta": 0.45, "truncation": 17}),
    ("infinite-memory", ["--weight-family", "zero", "--truncation", "5"],
     {"weights": {"family": "zero"}, "truncation": 5}),
    ("infinite-memory",
     ["--weight-family", "geometric", "--weight-c", "0.5", "--weight-ratio", "0.4"],
     {"weights": {"family": "geometric", "c": 0.5, "ratio": 0.4}}),
    ("infinite-memory",
     ["--weight-family", "polynomial", "--weight-c", "0.25", "--weight-power", "3.0",
      "--truncation", "20"],
     {"weights": {"family": "polynomial", "c": 0.25, "power": 3.0}, "truncation": 20}),
]


@pytest.mark.parametrize("variant, flags, fields", _PROFILE_FLAGS)
def test_cli_profile_flags_build_the_config_model(tmp_path, variant, flags, fields):
    n = 64
    out, want = tmp_path / "cli.csv", tmp_path / "lib.csv"
    res = CliRunner().invoke(
        main, ["profile", "--model", variant, *flags, "--n", str(n), "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    write_profile_csv(dependence_profile_for(build_model({"variant": variant, **fields}), n), want)
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--model", "kernel-chain"], "kappa"),
        (["--model", "infinite-memory", "--weight-family", "geometric", "--weight-c", "0.5"],
         "ratio"),
        (["--model", "doubling-map", "--theta", "0.5"], "theta"),
        # a flag the model or weight family does not declare is named as that
        # flag, not as the config key build_model would refuse
        (["--model", "kernel-chain", "--kappa", "0.7", "--weight-family", "geometric"],
         "--weight-family is not a flag of model 'kernel-chain'"),
        (["--model", "doubling-map", "--kappa", "0.5"],
         "--kappa is not a flag of model 'doubling-map'"),
        (["--model", "infinite-memory", "--weight-family", "geometric", "--weight-c", "0.5",
          "--weight-power", "2"],
         "--weight-power is not a flag of weight family 'geometric'"),
    ],
)
def test_cli_model_flag_errors_name_the_field(tmp_path, flags, named):
    res = CliRunner().invoke(main, ["profile", *flags, "--n", "8", "--out", str(tmp_path / "p")])
    assert res.exit_code == 2 and named in res.output


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--model", "doubling-map", "--weight-ratio", "0.5", "--weight-c", "3"], "'weights'"),
        (["--model", "kernel-chain", "--kappa", "0.5", "--weight-family", "geometric"],
         "'weights'"),
        (["--model", "infinite-memory", "--weight-ratio", "0.5", "--weight-c", "0.5"],
         "'family'"),
    ],
)
def test_cli_stray_weight_flags_are_refused(tmp_path, flags, named):
    # weight flags reach build_model even without --weight-family, so a model
    # without weights refuses them as it refuses a stray --theta
    out = tmp_path / "p.csv"
    res = CliRunner().invoke(main, ["profile", *flags, "--n", "4", "--out", str(out)])
    assert res.exit_code == 2 and named in res.output
    assert not out.exists()


# A model and a weight family declared outside the package, each with a field
# no class there declares; annotations as text, as the package's modules
# (which defer annotations) declare them.
@dataclass(frozen=True)
class _Damped(ProcessModel):
    damping: "float"
    name = "damped"
    b0 = property(lambda self: 1.0 - self.damping)
    ar = property(lambda self: (self.damping,))

    def linf_profile(self, n):
        return markov_contraction_profile(self.damping, n)


@dataclass(frozen=True)
class _HalvingWeights(WeightSequence):
    c: "float"
    first: "float"
    family = "halving"

    def _term(self, j: int) -> float:
        return self.c * self.first * 0.5 ** (j - 1)

    def _tails(self, p: int, m: int) -> np.ndarray:
        return np.array([self.c * self.first * 0.5 ** (q - 2) for q in range(p, p + m)])


def test_a_new_model_and_weight_family_build_from_their_classes_alone(tmp_path, monkeypatch):
    monkeypatch.setitem(MODELS, "damped", _Damped)
    monkeypatch.setitem(WEIGHTS, "halving", _HalvingWeights)
    want = [_Damped(damping=0.3),
            InfiniteMemoryChain(weights=_HalvingWeights(c=0.5, first=0.25), truncation=8)]
    docs = [{"variant": "damped", "damping": 0.3},
            {"variant": "infinite-memory", "weights": {"family": "halving", "c": 0.5, "first": 0.25},
             "truncation": 8}]
    assert [parse_config(_doc(model=d)).model for d in docs] == want

    built = []

    @click.command()
    @_model_options
    def probe(m):
        built.append(m)

    for flags in (["--model", "damped", "--damping", "0.3"],
                  ["--model", "infinite-memory", "--weight-family", "halving", "--weight-c", "0.5",
                   "--weight-first", "0.25", "--truncation", "8"]):
        res = CliRunner().invoke(probe, flags)
        assert res.exit_code == 0, res.output
    assert built == want
    helped = CliRunner().invoke(probe, ["--help"]).output
    assert "field of damped" in helped and "field of halving" in helped

    # its profile and a verification come from the class too
    prof = dependence_profile_for(_Damped(damping=0.3), 50)
    assert np.array_equal(prof.delta, markov_contraction_profile(0.3, 50).delta)
    # the weight family's tails feed the profile `weakdev profile` writes
    lags = want[1].linf_profile(8).delta
    assert lags.shape == (8,) and np.all((lags >= 0.0) & (lags <= 1.0))
    assert np.all(np.diff(lags) <= 0.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_doc(model=docs[0], out=str(tmp_path / "r.csv"))))
    res = CliRunner().invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    assert "thm2 x=1: threshold=" in res.output and " fail" not in res.output


_MODEL_FLAGS = {variant: flags for variant, flags, _ in _PROFILE_FLAGS}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("variant", MODELS)
def test_cli_profile_refuses_n_below_one_alike_for_every_model(tmp_path, variant, n):
    out = tmp_path / "p.csv"
    res = CliRunner().invoke(main, ["profile", "--model", variant, *_MODEL_FLAGS[variant],
                                    "--n", str(n), "--out", str(out)])
    assert res.exit_code == 1 and f"need integer n >= 1, got {n}\n" in res.output
    assert not out.exists()


def test_cli_simulate_writes_csv(tmp_path):
    out = tmp_path / "traj.csv"
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["simulate", "--model", "kernel-chain", "--kappa", "0.5", "--n", "20",
         "--seed", "4", "--out", str(out)],
    )
    assert res.exit_code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 21 and rows[0] == ["t", "x"]


def test_cli_estimate_variance(tmp_path):
    out = tmp_path / "var.csv"
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["estimate-variance", "--model", "iid-uniform", "--k-grid", "1,2",
         "--reps", "200", "--seed", "3", "--threads", "1", "--out", str(out)],
    )
    assert res.exit_code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert rows[1][3] == "sigma_sq"
    assert abs(float(rows[1][4]) - 1.0 / 12.0) < 0.02


def test_cli_estimate_coupling_with_block_out(tmp_path):
    out = tmp_path / "coup.csv"
    block_out = tmp_path / "block.csv"
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["estimate-coupling", "--model", "doubling-map", "--r-grid", "2,3",
         "--j-grid", "1", "--reps", "100", "--seed", "5", "--threads", "1",
         "--out", str(out), "--block-out", str(block_out)],
    )
    assert res.exit_code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3 and rows[1][2] == "r=2,j=1"
    with open(block_out, newline="") as fh:
        brows = list(csv.reader(fh))
    assert brows[0] == ["i", "x", "x_star", "dist"]
    assert len(brows) == 3  # r = 2 block


@pytest.mark.parametrize("j", [1, 7])
def test_block_out_is_a_pair_the_coupling_estimate_maximizes_over(tmp_path, j):
    # at --reps 1 the maximum is the one pair's distance sum
    out, block_out = tmp_path / "coup.csv", tmp_path / "block.csv"
    res = CliRunner().invoke(
        main,
        ["estimate-coupling", "--model", "kernel-chain", "--kappa", "0.7", "--r-grid", "3",
         "--j-grid", str(j), "--reps", "1", "--seed", "5",
         "--out", str(out), "--block-out", str(block_out)],
    )
    assert res.exit_code == 0, res.output
    with open(out, newline="") as fh:
        max_sum = float(list(csv.DictReader(fh))[0]["estimate"])
    with open(block_out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["i"]) for row in rows] == [3, 4, 5]
    assert sum(float(row["dist"]) for row in rows) == pytest.approx(max_sum, rel=1e-12, abs=0)


def test_cli_verify_pass_and_reference_exclusion(tmp_path):
    cfg = tmp_path / "cfg.json"
    report = tmp_path / "report.csv"
    cfg.write_text(
        json.dumps(
            {
                "model": "doubling-map",
                "n": 1000,
                "x_grid": [0.5, 1.0, 2.0],
                "theorem": "thm2",
                "reps": 500,
                "base_seed": 123,
                "out": str(report),
            }
        )
    )
    runner = CliRunner()
    res = runner.invoke(main, ["verify", "--config", str(cfg), "--threads", "1"])
    # the x = 2 reference row fails, but reference rows never set the exit code
    assert res.exit_code == 0, res.output
    assert "reference curve" in res.output
    assert report.exists()
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_HEADER and len(rows) == 7


def test_cli_verify_fails_on_violated_bound(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "doubling-map",
                "n": 1000,
                "x_grid": [2.0],
                "theorem": "iid_eq1",
                "reps": 1000,
                "base_seed": 77,
            }
        )
    )
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["verify", "--config", str(cfg), "--out", str(tmp_path / "r.csv"), "--threads", "1"],
    )
    # the iid formula is not a valid bound for the doubling map at x = 2
    assert res.exit_code == 1
    # a missing output path is a usage error instead
    res = runner.invoke(main, ["verify", "--config", str(cfg), "--threads", "1"])
    assert res.exit_code == 2


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--config", "{cfg}"],
        ["estimate-variance", "--model", "doubling-map", "--k-grid", "1"],
        ["estimate-coupling", "--model", "doubling-map", "--r-grid", "1", "--j-grid", "1"],
    ],
)
def test_cli_refuses_a_thread_count_below_one(tmp_path, command, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_doc(out=str(tmp_path / "r.csv"))))
    args = [a.format(cfg=cfg) for a in command]
    res = CliRunner().invoke(main, [*args, "--threads", value])
    assert res.exit_code == 2 and "--threads" in res.output
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("value", ["-1", "-5", str(2**64)])
@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--model", "doubling-map", "--n", "4", "--out", "{out}"],
        ["estimate-variance", "--model", "doubling-map", "--k-grid", "1", "--reps", "4",
         "--out", "{out}"],
        ["estimate-coupling", "--model", "doubling-map", "--r-grid", "1", "--j-grid", "1",
         "--reps", "4", "--block-out", "{out}"],
    ],
)
def test_cli_refuses_a_seed_outside_64_bits(tmp_path, command, value):
    out = tmp_path / "out.csv"
    args = [a.format(out=out) for a in command]
    res = CliRunner().invoke(main, [*args, "--seed", value])
    assert res.exit_code == 2 and "Invalid value for '--seed'" in res.output, res.output
    assert "Traceback" not in res.output and not out.exists()
    res = CliRunner().invoke(main, [*args, "--seed", str(2**64 - 1)])
    assert res.exit_code == 0, res.output
    assert out.exists()


def test_cli_verify_without_threads_builds_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("verify built a thread pool")

    monkeypatch.setattr(estimation, "ThreadPoolExecutor", no_pool)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_doc(n=8, reps=estimation._CHUNK + 1)))  # two chunks
    runner = CliRunner()
    outs = [tmp_path / "default.csv", tmp_path / "one.csv"]
    for out, extra in zip(outs, ([], ["--threads", "1"])):
        res = runner.invoke(main, ["verify", "--config", str(cfg), "--out", str(out), *extra])
        assert res.exit_code == 0, res.output
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cli_refuses_omega_below_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_doc(observable={"id": "centered-cosine", "omega": 0},
                                   out=str(tmp_path / "r.csv"))))
    res = CliRunner().invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "Error: need omega >= 1, got 0" in res.output and "Traceback" not in res.output
    res = CliRunner().invoke(main, ["estimate-variance", "--model", "doubling-map",
                                    "--observable", "centered-cosine", "--omega", "0",
                                    "--k-grid", "1"])
    assert res.exit_code == 2 and "--omega" in res.output
    assert not (tmp_path / "r.csv").exists()


def test_cli_verify_rejects_bad_config_cleanly(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": "doubling-map", "bogus": 1}')
    runner = CliRunner()
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 1
    # config rejections come back as CLI errors, not tracebacks
    assert "unknown config key 'bogus'" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "model, named",
    [
        ({"variant": ["x"]}, "unknown model variant ['x']"),
        ({"variant": "infinite-memory", "weights": {"family": ["g"]}},
         "unknown weight family ['g']"),
    ],
)
def test_cli_verify_rejects_non_string_names_cleanly(tmp_path, model, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_doc(model=model)))
    res = CliRunner().invoke(main, ["verify", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert f"Error: {named}" in res.output
    assert "Traceback" not in res.output


_HUGE = 2**58  # 2 EiB of float64: more address space than any process has


@pytest.mark.parametrize(
    "args, doc",
    [
        (["profile", "--model", "doubling-map", "--n", str(_HUGE), "--out", "{out}"], None),
        (["verify", "--config", "{cfg}"], {"n": _HUGE}),
        (["verify", "--config", "{cfg}"], {"reps": _HUGE}),
    ],
)
def test_cli_reports_a_size_no_process_can_allocate_cleanly(tmp_path, args, doc):
    out, cfg = tmp_path / "r.csv", tmp_path / "cfg.json"
    if doc is not None:
        cfg.write_text(json.dumps(_doc(**doc, out=str(out))))
    res = CliRunner().invoke(main, [a.format(out=out, cfg=cfg) for a in args])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "Unable to allocate" in errors[0]
    assert "Traceback" not in res.output and not out.exists()


def test_cli_asymptotics():
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["asymptotics", "--family", "geometric", "--decay", "0.5", "--c", str(4.0 / 9.0),
         "--targets", "1e-2,1e-4,1e-6,1e-8"],
    )
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if l]
    assert any("ratio" in l for l in lines)


def test_cli_rejects_bad_x_grid():
    runner = CliRunner()
    res = runner.invoke(
        main, ["bounds", "--theorem", "iid_eq1", "--n", "10", "--x-grid", "oops",
               "--sigma-sq", "0.1"],
    )
    assert res.exit_code == 2
