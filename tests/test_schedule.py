"""Noise schedules: closed forms for the VE family, finite-difference oracles
for the VP drift/diffusion identities, and inverse round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steplab.denoisers import PointDenoiser
from steplab.schedule import (NoiseSchedule, ScheduleDomainError, ve_edm,
                              vp_linear)
from steplab.solvers import SolverSpec, solve

VE = ve_edm()
VP = vp_linear()


def central_diff(f, t, eps=1e-6):
    return (f(t + eps) - f(t - eps)) / (2 * eps)


# ----------------------------------------------------------------------- VE


def test_ve_closed_forms():
    for t in (0.002, 0.4, 1.0, 13.0, 80.0):
        assert VE.alpha(t) == 1.0
        assert VE.sigma(t) == t
        assert abs(VE.lam(t) + np.log(t)) < 1e-15
        assert VE.drift(t) == 0.0
        assert VE.diffusion_sq(t) == 2.0 * t
    assert VE.sigma_T == 80.0


def test_ve_lambda_roundtrip():
    for t in (0.01, 1.0, 50.0):
        back = VE.t_of_lambda(VE.lam(t))
        assert abs(back - t) / t <= 1e-12


def test_ve_sigma_inverse_is_identity():
    assert VE.t_of_sigma(3.7) == 3.7


# ----------------------------------------------------------------------- VP


def test_vp_alpha_sigma_pythagorean():
    for t in np.linspace(VP.t_min, VP.T, 23):
        a, s = VP.alpha(t), VP.sigma(t)
        assert abs(a * a + s * s - 1.0) < 1e-12


def test_vp_drift_is_dlog_alpha_dt():
    for t in (0.01, 0.2, 0.5, 0.9):
        fd = central_diff(lambda u: np.log(VP.alpha(u)), t)
        assert abs(VP.drift(t) - fd) < 1e-6


def test_vp_diffusion_identity():
    # g^2 = d sigma^2/dt - 2 f sigma^2, checked against finite differences
    for t in (0.05, 0.3, 0.7, 0.95):
        dsig2 = central_diff(lambda u: VP.sigma(u) ** 2, t)
        want = dsig2 - 2.0 * VP.drift(t) * VP.sigma(t) ** 2
        assert abs(VP.diffusion_sq(t) - want) / want < 1e-6


def test_vp_beta_linear():
    assert VP.beta(0.0) == 0.1
    assert abs(VP.beta(1.0) - 20.0) < 1e-12


def test_vp_lambda_roundtrip_to_ulp():
    for t in (0.0015, 0.01, 0.3, 0.9):
        back = VP.t_of_lambda(VP.lam(t))
        assert abs(back - t) / t <= 1e-12


def test_vp_sigma_roundtrip():
    for t in (0.002, 0.1, 0.6, 0.99):
        back = VP.t_of_sigma(float(VP.sigma(t)))
        assert abs(back - t) / t <= 1e-9


# ------------------------------------------------------------------ inverses


SCHEDULES = {"ve": VE, "vp": VP}


@pytest.mark.parametrize("fam", SCHEDULES)
def test_inverses_on_arrays_equal_per_element_calls(fam):
    sched = SCHEDULES[fam]
    ts = np.geomspace(sched.t_min, sched.T, 41)
    for inverse, fwd in ((sched.t_of_lambda, sched.lam),
                         (sched.t_of_sigma, sched.sigma)):
        targets = np.asarray(fwd(ts), dtype=np.float64)
        whole = inverse(targets)
        assert whole.shape == ts.shape
        one_by_one = np.array([inverse(float(v)) for v in targets])
        assert np.array_equal(whole, one_by_one)


# observed max relative error on 4e5 points per family: lambda 5.4e-16 (VE),
# 1.9e-15 (VP); sigma 0 (VE), 1.9e-13 (VP, worst near t_min)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SCHEDULES)), st.floats(0.0, 1.0))
def test_lambda_roundtrip_on_the_whole_window(fam, u):
    sched = SCHEDULES[fam]
    t = min(sched.t_min + u * (sched.T - sched.t_min), sched.T)
    assert abs(sched.t_of_lambda(sched.lam(t)) - t) / t <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SCHEDULES)), st.floats(0.0, 1.0))
def test_sigma_roundtrip_on_the_whole_window(fam, u):
    sched = SCHEDULES[fam]
    t = min(sched.t_min + u * (sched.T - sched.t_min), sched.T)
    assert abs(sched.t_of_sigma(sched.sigma(t)) - t) / t <= 1e-9


def test_vp_constant_beta_roundtrips():
    # beta1 = beta0 zeroes the quadratic term of log alpha
    sched = vp_linear(beta0=5.0, beta1=5.0)
    ts = np.geomspace(sched.t_min, sched.T, 101)
    assert np.max(np.abs(sched.t_of_lambda(sched.lam(ts)) - ts) / ts) <= 1e-12
    assert np.max(np.abs(sched.t_of_sigma(sched.sigma(ts)) - ts) / ts) <= 1e-9


@pytest.mark.parametrize("fam", SCHEDULES)
def test_inverse_array_with_one_target_out_of_range_is_refused(fam):
    sched = SCHEDULES[fam]
    lams = np.linspace(*sched.lambda_range(), 5)
    lams[3] = sched.lambda_range()[1] + 1.0
    with pytest.raises(ScheduleDomainError, match=f"lambda={lams[3]}"):
        sched.t_of_lambda(lams)
    sigs = np.linspace(float(sched.sigma(sched.t_min)), sched.sigma_T, 5)
    sigs[1] = np.nan
    with pytest.raises(ScheduleDomainError, match="sigma=nan"):
        sched.t_of_sigma(sigs)


def test_vp_sigma_stable_near_zero():
    # naive 1 - alpha^2 loses digits at tiny t; expm1 keeps full precision
    t = 1e-3
    s = float(VP.sigma(t))
    la = -(0.25 * (20.0 - 0.1) * t * t + 0.05 * t)
    want = np.sqrt(-np.expm1(2 * la))
    assert s == want


# ------------------------------------------------------------- monotonicity


# lambda is weakly decreasing for every float pair; strictness only holds
# once the inputs are separated enough that d(lambda) = dt/t clears the ulp
# of the result (float-adjacent t near t_min map to the same lambda)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.002, max_value=80.0),
       st.floats(min_value=0.002, max_value=80.0))
def test_ve_lambda_decreasing(t1, t2):
    if t1 == t2:
        return
    lo, hi = min(t1, t2), max(t1, t2)
    assert VE.lam(lo) >= VE.lam(hi)
    if hi / lo > 1 + 1e-12:
        assert VE.lam(lo) > VE.lam(hi)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=1e-3, max_value=1.0))
def test_vp_lambda_decreasing(t1, t2):
    if t1 == t2:
        return
    lo, hi = min(t1, t2), max(t1, t2)
    assert VP.lam(lo) >= VP.lam(hi)
    if hi / lo > 1 + 1e-12:
        assert VP.lam(lo) > VP.lam(hi)


def test_lambda_range_orientation():
    lo, hi = VE.lambda_range()
    assert lo == VE.lam(VE.T) and hi == VE.lam(VE.t_min) and lo < hi


# ------------------------------------------------------------------- errors


def test_domain_check_rejects_outside():
    with pytest.raises(ScheduleDomainError):
        VE.check_domain(81.0)
    with pytest.raises(ScheduleDomainError):
        VE.check_domain(0.0019)
    assert VE.check_domain(80.0) == 80.0  # boundary with slack is fine


def test_domain_check_rejects_nan():
    with pytest.raises(ScheduleDomainError):
        VE.check_domain(float("nan"))
    with pytest.raises(ScheduleDomainError):
        VP.check_domain(np.array([0.5, np.nan]))
    # a NaN query time is named by validation, not by a diverged step
    spec = SolverSpec("dpmpp", 2, 2)
    den = PointDenoiser.create(VE, np.zeros(2))
    with pytest.raises(ScheduleDomainError):
        solve(den, VE, spec, [80.0, 1.0, 0.002], [80.0, np.nan, 0.002],
              np.ones(2))


def test_inverse_targets_outside_range_rejected():
    with pytest.raises(ScheduleDomainError):
        VE.t_of_lambda(VE.lam(VE.t_min) + 1.0)
    with pytest.raises(ScheduleDomainError):
        VE.t_of_sigma(81.0)


def test_bad_construction_rejected():
    with pytest.raises(ScheduleDomainError):
        NoiseSchedule(family="cosine", T=1.0, t_min=0.001)
    with pytest.raises(ScheduleDomainError):
        ve_edm(T=1.0, t_min=2.0)
    with pytest.raises(ScheduleDomainError, match="^T = inf"):
        ve_edm(T=np.inf)


@pytest.mark.parametrize("kwargs,field", [
    ({"T": 80.0}, "T"),                    # alpha_T = 0
    ({"T": 12.0}, "T"),                    # alpha_T subnormal, 1/alpha_T = inf
    ({"beta0": -1.0}, "beta0"),            # beta(t_min) < 0
    ({"beta0": -0.015}, "beta0"),          # beta(t_min) > 0 but sigma NaN
    ({"beta0": 5.0, "beta1": -5.0}, "beta1"),
], ids=["alpha_T-zero", "alpha_T-subnormal", "beta0-negative",
        "sigma-t_min-nan", "beta1-negative"])
def test_vp_schedule_without_valid_marginals_is_refused(kwargs, field):
    with pytest.raises(ScheduleDomainError, match=f"^{field} = "):
        vp_linear(**kwargs)


def test_vp_schedule_at_the_alpha_T_edge_is_kept():
    sched = vp_linear(T=11.0)
    assert 0.0 < sched.alpha(sched.T) < 1e-250
    assert np.isfinite(1.0 / sched.alpha(sched.T))


# ------------------------------------------------------------------ identity


def test_schedule_hash_stability_and_separation():
    assert VE.schedule_hash() == ve_edm().schedule_hash()
    assert VE.schedule_hash() != VP.schedule_hash()
    assert VE.schedule_hash() != ve_edm(T=40.0).schedule_hash()
    assert 0 <= VE.schedule_hash() < 2 ** 64
