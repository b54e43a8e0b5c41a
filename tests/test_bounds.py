import math
from dataclasses import fields
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weakdev import coefficients, estimation, processes
from weakdev.bounds import (
    BlockSelection,
    DependenceProfile,
    VarianceProfile,
    _check_n,
    bennett_h,
    bernstein_h1,
    h1_inverse,
    hoeffding_threshold,
    iid_bernstein_threshold,
    log_mgf_bound_thm1,
    log_mgf_bound_thm2,
    select_k_star,
    select_k_star_prime,
    thm1_threshold,
    thm2_bennett_tail,
    thm2_threshold,
    varest_bound,
    variance_profile,
)
from weakdev.coefficients import doubling_map_profile
from weakdev.errors import ValidationError

from test_processes import doubling_sigma_sq


def _h_decimal(x: float) -> float:
    """50-digit reference for (1+x) ln(1+x) - x."""
    getcontext().prec = 50
    d = Decimal(x)
    return float((1 + d) * (1 + d).ln() - d)


# ---------------------------------------------------------------------------
# rate functions


def test_bennett_h_values():
    assert bennett_h(0.0) == 0.0
    assert abs(bennett_h(1.0) - (2.0 * math.log(2.0) - 1.0)) < 1e-15
    assert abs(bennett_h(1.0) - 0.3862943611198906) < 1e-10
    assert abs(bennett_h(0.2) - 0.01878586815274555) < 1e-10


def test_bennett_h_rejects_negative():
    with pytest.raises(ValidationError):
        bennett_h(-0.1)


@pytest.mark.parametrize("x", [1e-9, 1e-7, 1e-5, 9.9e-5, 1.01e-4, 1e-3, 1e-2])
def test_bennett_h_accurate_near_zero(x):
    # series branch: ~1 ulp; log branch: cancellation costs at most ~x * 2^-52
    ref = _h_decimal(x)
    tol = max(4.0 * math.ulp(ref), x * 2.0**-51)
    assert abs(bennett_h(x) - ref) <= tol


def test_bernstein_h1_values():
    assert bernstein_h1(0.0) == 0.0
    assert abs(bernstein_h1(1.0) - (2.0 - math.sqrt(3.0))) < 1e-15
    assert abs(bernstein_h1(1.0) - 0.2679491924311227) < 1e-10
    with pytest.raises(ValidationError):
        bernstein_h1(-1e-9)
    with pytest.raises(ValidationError):
        h1_inverse(-1e-9)


def test_h1_inverse_identity_spot():
    assert abs(h1_inverse(bernstein_h1(2.5)) - 2.5) <= 1e-12


@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_h1_inverse_identity_property(x):
    assert abs(h1_inverse(bernstein_h1(x)) - x) <= 1e-12 * max(1.0, x)


@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_h_dominates_h1(x):
    assert bennett_h(x) >= bernstein_h1(x) - 1e-15


def test_h1_stable_for_tiny_arguments():
    # naive 1 + x - sqrt(1 + 2x) loses all digits near 0; the evaluation must not
    x = 1e-12
    assert bernstein_h1(x) == pytest.approx(0.5 * x * x, rel=1e-9)


# ---------------------------------------------------------------------------
# profile containers


def test_variance_envelope_examples():
    p = variance_profile([0.1, 0.3, 0.2])
    assert np.allclose(p.envelope, [0.3, 0.3, 0.2])
    const = variance_profile([0.2, 0.2, 0.2])
    assert np.array_equal(const.envelope, const.sigma_sq)
    inc = variance_profile([0.1, 0.2, 0.4])
    assert np.all(inc.envelope == 0.4)


def test_variance_profile_validation():
    with pytest.raises(ValidationError):
        variance_profile([0.1, -0.2])
    with pytest.raises(ValidationError, match=r"sigma_sq\[1\]"):
        variance_profile([0.3, 0.1])  # 0.3 > 1/4 cap at k=1
    with pytest.raises(ValidationError):
        variance_profile([])
    with pytest.raises(ValidationError):
        variance_profile([0.1], source="guessed")


@pytest.mark.parametrize("k", [1, 3, 5])
def test_variance_profile_refuses_nan(k):
    # a NaN fails every comparison; let through, the backward envelope spreads
    # it to every smaller k and select_k_star finds no admissible block size
    sigma_sq = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    sigma_sq[k - 1] = math.nan
    with pytest.raises(ValidationError, match=rf"sigma_sq\[{k}\] = nan") as ei:
        variance_profile(sigma_sq)
    assert ei.value.field == f"sigma_sq[{k}]"


@pytest.mark.parametrize("sigma_sq, source, field", [
    ([math.nan, 0.1], "analytic", "sigma_sq[1]"),
    ([0.1, -0.2], "estimated", "sigma_sq[2]"),
    ([0.3], "analytic", "sigma_sq[1]"),  # above the cap k/4 = 1/4
    ([0.1, 0.2, 0.8], "analytic", "sigma_sq[3]"),  # above the cap 3/4
    ([0.1], "zzz", "source"),
    ([], "analytic", "sigma_sq"),
    ([[0.1]], "analytic", "sigma_sq"),
])
def test_variance_profile_built_directly_checks_itself(sigma_sq, source, field):
    # the class is the one construction path, so no builder can be bypassed
    with pytest.raises(ValidationError) as ei:
        VarianceProfile(sigma_sq, source)
    assert ei.value.field == field


def test_variance_profile_derives_envelope_and_n():
    assert variance_profile is VarianceProfile
    assert [f.name for f in fields(VarianceProfile) if f.init] == ["sigma_sq", "source"]
    p = VarianceProfile([0.1, 0.3, 0.2], source="estimated")
    assert (p.n, p.source) == (3, "estimated")
    assert p.sigma_sq.dtype == np.float64 and np.array_equal(p.sigma_sq, [0.1, 0.3, 0.2])
    assert np.array_equal(p.envelope, [0.3, 0.3, 0.2])
    assert VarianceProfile([0.25]).source == "analytic"
    with pytest.raises(TypeError):
        VarianceProfile([0.1, 0.1], envelope=np.zeros(2), n=2)


@given(
    st.lists(st.floats(min_value=0.0, max_value=0.25, allow_nan=False), min_size=1, max_size=40)
)
def test_envelope_law(sig):
    env = variance_profile(sig).envelope
    n = len(sig)
    assert env[n - 1] == sig[n - 1]
    for k in range(n - 1):
        assert env[k] == max(sig[k], env[k + 1])


def test_dependence_profile_indexing():
    p = DependenceProfile(delta=np.array([0.5, 0.25]), kind="linf")
    assert p.at(1) == 0.5 and p.at(2) == 0.25
    with pytest.raises(ValidationError):
        p.at(0)
    with pytest.raises(ValidationError):
        p.at(3)
    with pytest.raises(ValidationError):
        DependenceProfile(delta=np.array([0.5]), kind="tau")


@st.composite
def _raw_profile(draw):
    """A non-increasing array with a few entries overwritten by NaN, negative
    values, values above 1 or rises, some within round-off."""
    n = draw(st.integers(min_value=1, max_value=12))
    vals = draw(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=n, max_size=n))
    delta = np.sort(np.asarray(vals))[::-1].copy()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        r = draw(st.integers(min_value=0, max_value=n - 1))
        delta[r] = draw(st.one_of(
            st.just(math.nan),
            st.floats(min_value=-1.0, max_value=2.0),
            st.sampled_from([-0.0, 0.0, 1.0]),
            st.sampled_from([5e-13, 2e-12]).map(lambda eps: delta[r - 1] + eps),
        ))
    return delta


def _first_offending_lag(delta) -> int | None:
    """The first r with delta_r NaN or negative, or above delta_{r-1} by more
    than 1e-12 once both are clipped at 1."""
    for r, d in enumerate(delta, start=1):
        if not d >= 0 or (r > 1 and min(d, 1.0) - min(delta[r - 2], 1.0) > 1e-12):
            return r
    return None


@settings(max_examples=300)
@given(_raw_profile(), st.sampled_from(["phi", "linf"]))
@example(np.array([math.nan, 0.5, 0.9]), "linf")
@example(np.array([0.1, 0.4]), "linf")
@example(np.array([1.5, 0.5]), "linf")
def test_dependence_profile_refuses_the_first_offending_lag_and_clips(delta, kind):
    r = _first_offending_lag(delta)
    if r is None:
        got = DependenceProfile(delta=delta, kind=kind).delta
        assert got.tobytes() == np.clip(delta, 0.0, 1.0).tobytes()
    else:
        with pytest.raises(ValidationError) as ei:
            DependenceProfile(delta=delta, kind=kind)
        assert ei.value.field == f"delta[{r}]"


# ---------------------------------------------------------------------------
# block-size selectors


def test_select_k_star_examples():
    n = 50
    zeros = DependenceProfile(delta=np.zeros(n), kind="phi")
    env = variance_profile(np.full(n, 0.25))
    assert select_k_star(zeros, env).k == 1

    # k delta_k = (4/9) 2^-k against a flat 0.25 envelope: admissible at k = 1
    assert select_k_star(doubling_map_profile(n), env).k == 1

    ones = DependenceProfile(delta=np.ones(n), kind="phi")
    zero_var = variance_profile(np.zeros(n))
    sel = select_k_star(ones, zero_var)
    assert sel.k is None and sel.variance_at_k is None


def test_select_k_star_length_mismatch():
    with pytest.raises(ValidationError):
        select_k_star(
            DependenceProfile(delta=np.zeros(3), kind="phi"), variance_profile(np.zeros(4))
        )


def test_select_k_star_prime_examples():
    n = 1000
    zeros = DependenceProfile(delta=np.zeros(n), kind="linf")
    assert select_k_star_prime(zeros, n, 0.5).k == 1

    prof = doubling_map_profile(n)
    assert select_k_star_prime(prof, n, 1.0).k == 5
    assert select_k_star_prime(prof, n, 0.5).k == 6
    assert select_k_star_prime(prof, n, 2.0).k == 4
    # the coupling-route selection has no variance attached
    sel = select_k_star_prime(prof, n, 1.0)
    assert (sel.k, sel.variance_at_k) == (5, None)

    stuck = DependenceProfile(delta=np.ones(10), kind="linf")
    assert select_k_star_prime(stuck, 10, 0.5).k is None


def test_select_k_star_prime_domain():
    prof = doubling_map_profile(10)
    with pytest.raises(ValidationError):
        select_k_star_prime(prof, 10, 0.0)
    with pytest.raises(ValidationError):
        select_k_star_prime(DependenceProfile(delta=np.zeros(10), kind="phi"), 10, 1.0)
    with pytest.raises(ValidationError):
        select_k_star_prime(prof, 11, 1.0)


@st.composite
def _random_profile_case(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    vals = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    delta = np.sort(np.asarray(vals))[::-1].copy()
    sig = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.25, allow_nan=False), min_size=n, max_size=n
        )
    )
    x = draw(st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
    return delta, np.asarray(sig), x


@settings(max_examples=200)
@given(_random_profile_case())
def test_selectors_match_exhaustive_scan(case):
    delta, sig, x = case
    n = delta.size
    prof = DependenceProfile(delta=delta, kind="linf")
    var = variance_profile(sig)

    scan = next((k for k in range(1, n + 1) if k * delta[k - 1] <= var.envelope[k - 1]), None)
    assert select_k_star(prof, var).k == scan

    scan_p = next((k for k in range(1, n + 1) if n * delta[k - 1] <= k * x), None)
    assert select_k_star_prime(prof, n, x).k == scan_p


# ---------------------------------------------------------------------------
# thresholds


def test_iid_threshold_examples():
    assert iid_bernstein_threshold(1000, 1.0 / 12.0, 1.0) == pytest.approx(
        13.076611154024722, abs=1e-12
    )
    assert iid_bernstein_threshold(500, 0.0, 6.0) == 1.0
    assert iid_bernstein_threshold(100, 0.25, 0.0) == 0.0


def test_thm1_threshold_examples():
    got = thm1_threshold(1000, 0.25, 1, 1.0)
    assert got == pytest.approx(5.8 * math.sqrt(250.0) + 1.5, abs=1e-12)
    assert got == pytest.approx(93.20605214488299, abs=1e-10)
    assert thm1_threshold(1000, 0.25, 1, 0.0) == 0.0
    assert thm1_threshold(10, 0.0, 3, 2.0) == 9.0


def test_thm2_threshold_examples():
    got = thm2_threshold(1000, doubling_sigma_sq(5), 5, 1.0)
    assert got == pytest.approx(33.93355773061366, abs=1e-10)
    assert thm2_threshold(1000, 0.2, 5, 0.0) == 0.0
    assert thm2_threshold(50, 0.0, 2, 3.0) == pytest.approx(8.04, abs=1e-12)


def test_thresholds_reject_missing_block_size():
    with pytest.raises(ValidationError):
        thm1_threshold(10, 0.1, None, 1.0)
    with pytest.raises(ValidationError):
        thm2_threshold(10, 0.1, BlockSelection(k=None, variance_at_k=None).k, 1.0)
    with pytest.raises(ValidationError):
        thm1_threshold(10, 0.1, 0, 1.0)
    with pytest.raises(ValidationError):
        thm2_threshold(10, 0.1, 1.5, 1.0)


@pytest.mark.parametrize("thr", [thm1_threshold, thm2_threshold])
def test_thresholds_refuse_a_block_larger_than_n(thr):
    # both selectors return k in 1..n, so a larger k is no block size of the sum
    assert thr(10, 0.1, 10, 1.0) > 0.0
    for k in (11, 100, np.int64(11)):
        with pytest.raises(ValidationError) as ei:
            thr(10, 0.1, k, 1.0)
        assert ei.value.field == "k"


def test_thm2_bennett_tail_refuses_a_block_larger_than_n():
    assert 0.0 < thm2_bennett_tail(10, 10, 0.1, 0.0, 1.0) < 1.0
    for k in (11, 100, np.int64(11)):
        with pytest.raises(ValidationError) as ei:
            thm2_bennett_tail(10, k, 0.1, 0.0, 1.0)
        assert ei.value.field == "k"


def test_hoeffding_threshold_examples():
    assert hoeffding_threshold(100, np.zeros(99), 2.0) == pytest.approx(10.0, abs=1e-12)
    assert hoeffding_threshold(2, [1.0], 2.0) == pytest.approx(math.sqrt(10.0), abs=1e-12)

    n, x = 10, 1.0
    phi = [2.0**-j for j in range(1, n)]
    brute = sum((1.0 + 2.0 * (n - j) * phi[j - 1]) ** 2 for j in range(1, n)) + 1.0
    assert hoeffding_threshold(n, phi, x) == pytest.approx(math.sqrt(0.5 * brute * x), abs=1e-12)


def test_hoeffding_threshold_validation():
    with pytest.raises(ValidationError):
        hoeffding_threshold(3, [0.5, 1.5], 1.0)
    with pytest.raises(ValidationError):
        hoeffding_threshold(5, [0.1, 0.1], 1.0)  # needs n-1 = 4 entries
    # phi_n and later entries never enter the sum, but each is still checked
    with pytest.raises(ValidationError) as ei:
        hoeffding_threshold(3, [0.5, 0.5, 7.0], 1.0)
    assert ei.value.field == "phi[3]"
    assert hoeffding_threshold(1, [], 3.0) == pytest.approx(math.sqrt(1.5))


_NAN = float("nan")


@pytest.mark.parametrize(
    "thr, args, field",
    [
        (iid_bernstein_threshold, (_NAN, 0.1, 1.0), "n"),
        (iid_bernstein_threshold, (10, _NAN, 1.0), "sigma1_sq"),
        (iid_bernstein_threshold, (10, 0.1, _NAN), "x"),
        (thm1_threshold, (_NAN, 0.1, 2, 1.0), "n"),
        (thm1_threshold, (10, _NAN, 2, 1.0), "envelope_at_k_star"),
        (thm1_threshold, (10, 0.1, _NAN, 1.0), "k"),
        (thm1_threshold, (10, 0.1, 2, _NAN), "x"),
        (thm2_threshold, (_NAN, 0.1, 2, 1.0), "n"),
        (thm2_threshold, (10, _NAN, 2, 1.0), "sigma_sq_at_kp"),
        (thm2_threshold, (10, 0.1, _NAN, 1.0), "k"),
        (thm2_threshold, (10, 0.1, 2, _NAN), "x"),
        (hoeffding_threshold, (_NAN, [0.1], 1.0), "n"),
        (hoeffding_threshold, (3, [0.1, _NAN], 1.0), "phi[2]"),
        (hoeffding_threshold, (3, [0.1, 0.1], _NAN), "x"),
    ],
)
def test_thresholds_refuse_nan_naming_the_argument(thr, args, field):
    # NaN fails every comparison, so a check written as `x < 0` let it through
    # and max(0.0, nan) then reported a threshold of 0.0
    with pytest.raises(ValidationError) as ei:
        thr(*args)
    assert ei.value.field == field


# The other argument checks take the same positive form: each NaN argument
# is refused by name, where a `< 0` check would let select_k_star_prime
# return k=None for a NaN x, thm2_bennett_tail return 1.0, and varest_bound
# and the log-MGF bounds return nan.

_LINF = DependenceProfile(delta=np.array([0.5, 0.1, 0.01]), kind="linf")


def _refuses_nan(fn, args, field):
    with pytest.raises(ValidationError) as ei:
        fn(*args)
    assert ei.value.field == field


@pytest.mark.parametrize(
    "args, field", [((_LINF, 3, _NAN), "x"), ((_LINF, _NAN, 1.0), "n")]
)
def test_select_k_star_prime_refuses_nan(args, field):
    _refuses_nan(select_k_star_prime, args, field)


@pytest.mark.parametrize("call, field", [
    (lambda: _LINF.at(2.5), "r"),
    (lambda: variance_profile([0.1, 0.2]).sigma_at(1.5), "k"),
    (lambda: select_k_star_prime(_LINF, 2.5, 1.0), "n"),
], ids=["at", "sigma_at", "select_k_star_prime"])
def test_a_fractional_count_is_refused_by_name(call, field):
    # 2.5 passed each range check, then ended in IndexError or TypeError
    with pytest.raises(ValidationError, match=rf"need integer {field} >= 1, got \d\.5$") as ei:
        call()
    assert ei.value.field == field


def test_one_integer_check_serves_every_module():
    assert coefficients._check_n is processes._check_n is estimation._check_n is _check_n
    with pytest.raises(ValidationError, match=r"^block size must be a positive integer, got 2\.5$"):
        thm2_threshold(10, 0.1, 2.5, 1.0)


@pytest.mark.parametrize(
    "args, field",
    [
        ((_NAN, 2, 0.1, 0.01, 5.0), "n"),
        ((100, 2, _NAN, 0.01, 5.0), "sigma_k_sq"),
        ((100, 2, 0.1, _NAN, 5.0), "delta_prime_k"),
        ((100, 2, 0.1, 0.01, _NAN), "x"),
    ],
)
def test_thm2_bennett_tail_refuses_nan(args, field):
    _refuses_nan(thm2_bennett_tail, args, field)


@pytest.mark.parametrize(
    "args, field", [((_NAN, 0.1, _LINF, 2), "sigma1_sq"), ((0.1, _NAN, _LINF, 2), "mean_abs_f")]
)
def test_varest_bound_refuses_nan(args, field):
    _refuses_nan(varest_bound, args, field)


@pytest.mark.parametrize(
    "args, field",
    [
        ((_NAN, 10, 2, 0.1, 0.01), "t"),
        ((0.5, _NAN, 2, 0.1, 0.01), "n"),
        ((0.5, 10, 2, _NAN, 0.01), "sigma_k_sq"),
        ((0.5, 10, 2, 0.1, _NAN), "delta_k"),
    ],
)
def test_log_mgf_bound_thm1_refuses_nan(args, field):
    _refuses_nan(log_mgf_bound_thm1, args, field)


@pytest.mark.parametrize(
    "args, field",
    [
        ((_NAN, 10, 2, 0.1, 0.01), "t"),
        ((0.5, _NAN, 2, 0.1, 0.01), "n"),
        ((0.5, 10, 2, _NAN, 0.01), "sigma_k_sq"),
        ((0.5, 10, 2, 0.1, _NAN), "delta_prime_k"),
    ],
)
def test_log_mgf_bound_thm2_refuses_nan(args, field):
    _refuses_nan(log_mgf_bound_thm2, args, field)


@pytest.mark.parametrize("fn", [bennett_h, bernstein_h1, h1_inverse])
def test_rate_functions_refuse_nan(fn):
    _refuses_nan(fn, (_NAN,), "x")


# ---------------------------------------------------------------------------
# Bennett-form tail


def test_thm2_bennett_tail_examples():
    got = thm2_bennett_tail(100, 1, 0.25, 0.0, 10.0)
    assert got == pytest.approx(math.exp(-50.0 * bennett_h(0.2)), abs=1e-15)
    assert got == pytest.approx(0.3909039475415447, abs=1e-12)
    # at the left endpoint h(0) = 0
    assert thm2_bennett_tail(100, 2, 0.1, 0.02, 2.0) == 1.0


def test_thm2_bennett_tail_domain_and_degenerate():
    with pytest.raises(ValidationError):
        thm2_bennett_tail(100, 2, 0.1, 0.02, 1.9)
    assert thm2_bennett_tail(100, 2, 0.0, 0.02, 2.0) == 1.0
    assert thm2_bennett_tail(100, 2, 0.0, 0.02, 2.1) == 0.0
    assert thm2_bennett_tail(100, 2, 0.0, 0.0, 0.0) == 1.0


def test_thm2_bennett_tail_iid_reduction():
    # delta' = 0, k = 1 must equal the classical one-block Bennett bound,
    # cross-checked against a separately written expression
    for n in (10, 100, 1000):
        for sig in (0.05, 0.25):
            for x in (0.1, 1.0, 5.0, 25.0):
                v = 2.0 * n * sig
                u = x / v
                classical = math.exp(-v * ((1.0 + u) * math.log1p(u) - u))
                assert thm2_bennett_tail(n, 1, sig, 0.0, x) == pytest.approx(
                    classical, abs=1e-12
                )


def test_thm2_consistency_with_bernstein_inverse():
    # at t = n delta' + (2 n sigma^2 / k) h1_inverse(k^2 x / (2 n sigma^2))
    # the Bennett tail is at most e^-x, since h >= h1
    for n in (50, 1000):
        for k in (1, 3, 10):
            for sig in (0.01, 0.2):
                for dp in (0.0, 1e-3):
                    for x in (0.1, 1.0, 4.0, 20.0):
                        v = 2.0 * n * sig
                        t = n * dp + (v / k) * h1_inverse(k * k * x / v)
                        tail = thm2_bennett_tail(n, k, sig, dp, t)
                        assert tail <= math.exp(-x) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# variance bound and log-MGF diagnostics


def test_varest_bound_examples():
    prof = doubling_map_profile(64)
    got = varest_bound(1.0 / 12.0, 0.25, prof, 5)
    want = 1.0 / 12.0 + 0.5 * (4.0 / 9.0) * (0.5 + 0.125 + 1.0 / 24.0 + 1.0 / 64.0)
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(0.23495370370370366, abs=1e-12)

    zeros = DependenceProfile(delta=np.zeros(8), kind="phi")
    assert varest_bound(0.07, 0.25, zeros, 5) == 0.07
    assert varest_bound(0.07, 0.25, prof, 1) == 0.07
    with pytest.raises(ValidationError):
        varest_bound(0.07, 0.25, zeros, 9)


def test_log_mgf_thm1():
    assert log_mgf_bound_thm1(0.0, 100, 10, 0.2, 0.0) == 0.0
    # 4 n t^2 * 2(e-2) sigma^2 evaluated literally
    want = 4.0 * 100 * 0.01 * (2.0 * (math.e - 2.0) * 0.2)
    assert log_mgf_bound_thm1(0.1, 100, 10, 0.2, 0.0) == pytest.approx(want, abs=1e-14)
    assert want == pytest.approx(1.1492509255344725, abs=1e-12)
    assert log_mgf_bound_thm1(1.0, 10, 1, 0.0, 0.5) == pytest.approx(20.0 * math.e, abs=1e-12)
    with pytest.raises(ValidationError):
        log_mgf_bound_thm1(1.1, 10, 1, 0.1, 0.0)
    with pytest.raises(ValidationError):
        log_mgf_bound_thm1(-0.1, 10, 1, 0.1, 0.0)


def test_log_mgf_thm2():
    assert log_mgf_bound_thm2(0.0, 100, 2, 0.1, 0.0) == 0.0
    got = log_mgf_bound_thm2(0.5, 100, 2, 0.1, 0.0)
    assert got == pytest.approx(5.0 * (math.e - 2.0), abs=1e-12)
    assert got == pytest.approx(3.5914091422952255, abs=1e-12)
    assert log_mgf_bound_thm2(2.0, 100, 7, 0.0, 0.01) == pytest.approx(2.0, abs=1e-15)
    # e^{kt} overflows a float past kt = ln(max float), about 709.78: the bound is
    # then infinite, so it still dominates every finite log-MGF
    assert math.isfinite(log_mgf_bound_thm2(1.0, 10, 709, 0.1, 0.0))
    assert log_mgf_bound_thm2(1.0, 10, 800, 0.1, 0.0) == math.inf
    assert log_mgf_bound_thm2(1.0, 10, 800, 0.0, 0.0) == math.inf
    with pytest.raises(ValidationError):
        log_mgf_bound_thm2(-0.5, 100, 2, 0.1, 0.0)


# ---------------------------------------------------------------------------
# monotonicity grids


_XGRID = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]


@pytest.mark.parametrize(
    "thr",
    [
        lambda n, v, x: iid_bernstein_threshold(n, v, x),
        lambda n, v, x: thm1_threshold(n, v, 3, x),
        lambda n, v, x: thm2_threshold(n, v, 3, x),
    ],
)
def test_thresholds_monotone(thr):
    for n in (10, 100):
        for v in (0.0, 0.1, 0.25):
            vals = [thr(n, v, x) for x in _XGRID]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
    for x in _XGRID:
        assert thr(200, 0.1, x) >= thr(100, 0.1, x)
        assert thr(100, 0.2, x) >= thr(100, 0.1, x)


def test_hoeffding_threshold_monotone():
    phi = [0.5, 0.25, 0.125, 0.0625]
    vals = [hoeffding_threshold(5, phi, x) for x in _XGRID]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert hoeffding_threshold(5, phi, 1.0) <= hoeffding_threshold(5, [0.6, 0.5, 0.3, 0.1], 1.0)
