"""Solvers: point-mass closed forms, denoiser call accounting, the VE
first-order equivalences, warm-up behavior, the coefficient-table solver
against the per-step formulas, and error paths."""

import warnings

import numpy as np
import pytest

import steplab.engine as en
from pointmass import point_mass
from steplab.denoisers import GMDenoiser
from steplab.discretize import heuristic_times
from steplab.evaluate import solver_map
from steplab.schedule import ve_edm, vp_linear
from steplab.solvers import (DivergenceError, GridError, SolverSpec,
                             checked_shared, coeffs, coeffs_transpose,
                             initial_state, make_steps, march_steps, solve)

VE = ve_edm()
VP = vp_linear()

GM = GMDenoiser.create(VE, np.array([0.5, 0.3, 0.2]),
                       np.array([[2.0, 1.0], [-1.4, 1.8], [0.3, -2.2]]),
                       np.array([0.25, 0.16, 0.36]))


class CountingDen:
    """Wraps a denoiser, recording every query time: its step rows carry
    t^c_i ahead of the inner denoiser's row."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    @property
    def d(self):
        return self.inner.d

    def step_constants(self, times_c):
        return (times_c,) + self.inner.step_constants(times_c)

    def epsilon(self, x, row):
        self.calls.append(float(en.data_of(row[0])))
        return self.inner.epsilon(x, row[1:])


def point_exact(x_T, t, T=80.0, x0=np.array([1.0, -1.0])):
    # under VE with point-mass data the ODE trajectory is the straight line
    # x(t) = x0 + (t/T)(x_T - x0)
    return x0 + (t / T) * (x_T - x0)


# ----------------------------------------------------------- exactness


def test_ddim_point_mass_single_step_anchor():
    den = point_mass(VE, np.array([1.0, -1.0]))
    spec = SolverSpec(family="dpmpp", order=1, nfe=1)
    out = solve(den, VE, spec, np.array([80.0, 0.002]),
                x_T=np.array([8.0, -8.0]))
    np.testing.assert_allclose(out, [1.000175, -1.000175], rtol=0, atol=1e-12)


@pytest.mark.parametrize("grid", [
    np.array([80.0, 0.002]),
    np.array([80.0, 1.0, 0.002]),
    np.array([80.0, 53.1, 17.0, 2.4, 0.31, 0.002]),
])
def test_ddim_point_mass_exact_on_any_grid(grid):
    den = point_mass(VE, np.array([1.0, -1.0]))
    spec = SolverSpec(family="dpmpp", order=1, nfe=len(grid) - 1)
    x_T = np.array([-3.0, 5.5])
    out = solve(den, VE, spec, grid, x_T=x_T)
    np.testing.assert_allclose(out, point_exact(x_T, 0.002), atol=1e-12)


def test_ddim_point_mass_trajectory_is_the_line():
    den = point_mass(VE, np.array([1.0, -1.0]))
    grid = np.array([80.0, 20.0, 5.0, 0.002])
    x_T = np.array([8.0, -8.0])
    for k in range(1, len(grid)):
        # x_k is the output of the same solver run on the grid prefix
        spec = SolverSpec(family="dpmpp", order=1, nfe=k)
        x_k = solve(den, VE, spec, grid[:k + 1], x_T=x_T)
        np.testing.assert_allclose(x_k, point_exact(x_T, grid[k]),
                                   atol=1e-12)


# ----------------------------------------------------- calls and equivalences


@pytest.mark.parametrize("family,order", [("euler", 1), ("dpmpp", 1),
                                          ("dpmpp", 2), ("ipndm", 4)])
def test_denoiser_called_once_per_step_at_query_times(family, order):
    cd = CountingDen(GM)
    nfe = 5
    times = heuristic_times("logsnr", VE, nfe)
    times_c = np.clip(times[:-1] * 1.01, VE.t_min, VE.T)
    spec = SolverSpec(family=family, order=order, nfe=nfe)
    solve(cd, VE, spec, times, times_c, x_T=np.array([10.0, -4.0]))
    np.testing.assert_allclose(cd.calls, times_c, rtol=1e-15)


def test_first_order_families_coincide_under_ve():
    # with alpha = 1 and sigma = t all three first-order updates reduce to
    # x + (t1 - t0) eps
    times = heuristic_times("edm", VE, 6)
    x_T = np.array([12.0, 7.0])
    outs = [solve(GM, VE, SolverSpec(family=f, order=1, nfe=6), times,
                  x_T=x_T)
            for f in ("euler", "dpmpp", "ipndm")]
    np.testing.assert_allclose(outs[0], outs[1], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(outs[0], outs[2], rtol=1e-12, atol=1e-12)


def test_times_c_defaults_to_times():
    # each step queries the denoiser at its start, t_i for i < N
    times = heuristic_times("logsnr", VE, 4)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    x_T = np.array([3.0, -2.0])
    np.testing.assert_array_equal(
        solve(GM, VE, spec, times, None, x_T),
        solve(GM, VE, spec, times, times[:-1], x_T))


# ------------------------------------------------------------ accuracy order


def reference(x_T, nfe=400):
    times = heuristic_times("logsnr", VE, nfe)
    return solve(GM, VE, SolverSpec(family="dpmpp", order=1, nfe=nfe), times,
                 x_T=x_T)


def test_error_shrinks_with_nfe_and_order_two_wins():
    x_T = np.array([30.0, -15.0])
    ref = reference(x_T)

    def err(family, order, nfe):
        times = heuristic_times("logsnr", VE, nfe)
        out = solve(GM, VE, SolverSpec(family=family, order=order, nfe=nfe),
                    times, x_T=x_T)
        return np.linalg.norm(out - ref)

    assert err("euler", 1, 16) < err("euler", 1, 8)
    assert err("dpmpp", 2, 8) < err("dpmpp", 1, 8)
    assert err("ipndm", 4, 8) < err("ipndm", 1, 8)


def test_vp_families_run_and_stay_finite():
    vp_gm = GMDenoiser.create(VP, np.array([0.6, 0.4]),
                              np.array([[1.0, -0.5], [-1.0, 0.5]]),
                              np.array([0.2, 0.3]))
    x_T = np.array([1.3, -0.2])
    for family, order in (("euler", 1), ("dpmpp", 2), ("ipndm", 3)):
        times = heuristic_times("logsnr", VP, 6)
        out = solve(vp_gm, VP, SolverSpec(family=family, order=order, nfe=6),
                    times, x_T=x_T)
        assert np.all(np.isfinite(out))


def test_ipndm_warmup_uses_lower_orders():
    # order 4 at nfe=2 must behave identically to order 2 at the same grid:
    # only rows 1 and 2 of the coefficient table are reachable
    times = heuristic_times("logsnr", VE, 2)
    x_T = np.array([5.0, 5.0])
    o4 = solve(GM, VE, SolverSpec(family="ipndm", order=4, nfe=2), times,
               x_T=x_T)
    o2 = solve(GM, VE, SolverSpec(family="ipndm", order=2, nfe=2), times,
               x_T=x_T)
    np.testing.assert_array_equal(o4, o2)


# ----------------------------------------------- coefficient-table solver

# Adams-Bashforth rows, newest epsilon first
AB_ROWS = {1: (1.0,), 2: (1.5, -0.5), 3: (23 / 12, -16 / 12, 5 / 12),
           4: (55 / 24, -59 / 24, 37 / 24, -9 / 24)}


def reference_march(den, sched, spec, times, times_c, x):
    """Plain-numpy marcher re-deriving each step's coefficients from the
    scalar times, one formula per family as in the module docstring."""
    x = np.asarray(x, dtype=np.float64)
    xhat_prev, h_prev, eps_hist = None, None, []
    for i in range(spec.nfe):
        t0, t1 = times[i], times[i + 1]
        eps = den.epsilon(x, times_c[i])
        if spec.family == "euler":
            coef = sched.diffusion_sq(t0) / (2.0 * sched.sigma(t0))
            x = x + (t1 - t0) * (sched.drift(t0) * x + coef * eps)
            continue
        a0, s0 = sched.alpha_sigma(t0)
        a1, s1 = sched.alpha_sigma(t1)
        h = sched.lam(t1) - sched.lam(t0)
        if spec.family == "dpmpp":
            xhat = (x - s0 * eps) / a0
            d_i = xhat
            if spec.order == 2 and i > 0:
                c = h / (2.0 * h_prev)
                d_i = (1.0 + c) * xhat - c * xhat_prev
            x = (s1 / s0) * x - a1 * np.expm1(-h) * d_i
            xhat_prev, h_prev = xhat, h
        else:
            eps_hist = [eps] + eps_hist[:spec.order - 1]
            row = AB_ROWS[len(eps_hist)]
            acc = sum(c * e for c, e in zip(row, eps_hist))
            x = (a1 / a0) * x - s1 * np.expm1(h) * acc
    return x


VP_GM = GMDenoiser.create(VP, np.array([0.5, 0.3, 0.2]),
                          np.array([[1.0, 0.5], [-0.7, 0.9], [0.2, -1.1]]),
                          np.array([0.25, 0.16, 0.36]))
TABLE_SPECS = [("euler", 1), ("dpmpp", 1), ("dpmpp", 2), ("ipndm", 1),
               ("ipndm", 2), ("ipndm", 3), ("ipndm", 4)]


@pytest.mark.parametrize("sched,den", [(VE, GM), (VP, VP_GM)],
                         ids=["ve", "vp"])
@pytest.mark.parametrize("family,order", TABLE_SPECS,
                         ids=[f"{f}{o}" for f, o in TABLE_SPECS])
@pytest.mark.parametrize("nfe", [1, 2, 5, 16])
def test_table_solver_matches_per_step_formulas(sched, den, family, order,
                                                nfe):
    spec = SolverSpec(family=family, order=order, nfe=nfe)
    times = heuristic_times("logsnr", sched, nfe)
    times_c = np.clip(times[:-1] * 0.97, sched.t_min, sched.T)
    xs = np.array([[1.3, -0.4], [-0.8, 2.1], [0.05, 0.6]]) * sched.sigma_T
    batch = solve(den, sched, spec, times, times_c, xs)
    for j, x in enumerate(xs):
        want = reference_march(den, sched, spec, times, times_c, x)
        one = solve(den, sched, spec, times, times_c, x)
        np.testing.assert_allclose(one, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(batch[j], one)


# ------------------------------------------------------------------- errors


def test_spec_validation():
    with pytest.raises(GridError):
        SolverSpec(family="heun", order=2, nfe=4)
    with pytest.raises(GridError):
        SolverSpec(family="euler", order=2, nfe=4)
    with pytest.raises(GridError):
        SolverSpec(family="dpmpp", order=3, nfe=4)
    with pytest.raises(GridError):
        SolverSpec(family="ipndm", order=5, nfe=4)
    with pytest.raises(GridError):
        SolverSpec(family="dpmpp", order=1, nfe=0)


def test_history_width_by_family():
    assert SolverSpec(family="euler", order=1, nfe=4).history_width == 0
    assert SolverSpec(family="dpmpp", order=1, nfe=4).history_width == 0
    assert SolverSpec(family="dpmpp", order=2, nfe=4).history_width == 1
    assert SolverSpec(family="ipndm", order=4, nfe=4).history_width == 3
    st = initial_state(SolverSpec(family="ipndm", order=3, nfe=4),
                       np.zeros(2))
    assert len(st) == 3


def test_grid_validation_errors():
    spec = SolverSpec(family="euler", order=1, nfe=2)
    x = np.zeros(2)
    with pytest.raises(GridError, match="two points"):
        solve(GM, VE, spec, np.array([80.0]), x_T=x)
    with pytest.raises(GridError, match="expected 2"):
        solve(GM, VE, spec, np.array([80.0, 0.002]), x_T=x)
    with pytest.raises(GridError, match="decreasing"):
        solve(GM, VE, spec, np.array([80.0, 80.0, 0.002]), x_T=x)
    # one query time per step: N + 1 of them are refused, not truncated
    with pytest.raises(GridError, match=r"times_c must have shape \(2,\)"):
        solve(GM, VE, spec, np.array([80.0, 1.0, 0.002]),
              np.array([80.0, 1.0, 0.002]), x)
    # transport maps check their grid the same way, when they are built
    with pytest.raises(GridError, match="expected 2"):
        solver_map(GM, VE, spec, np.array([80.0, 0.002]))


def test_out_of_domain_grid_rejected():
    spec = SolverSpec(family="euler", order=1, nfe=2)
    from steplab.schedule import ScheduleDomainError
    with pytest.raises(ScheduleDomainError):
        solve(GM, VE, spec, np.array([90.0, 1.0, 0.002]), x_T=np.zeros(2))


class ConstantDen:
    """Epsilon, and J_eps V in the Jacobian mode, `value` in every entry."""

    d = 2

    def __init__(self, value):
        self.value = value

    def step_constants(self, times_c):
        return (times_c,)

    def epsilon(self, x, row, tangents=None):
        eps = np.full(x.shape, self.value)
        return eps if tangents is None else (eps, np.full(tangents.shape,
                                                          self.value))


@pytest.mark.parametrize("run", [
    lambda spec, times, x: solve(ConstantDen(np.inf), VE, spec, times,
                                 x_T=x),
    lambda spec, times, x: solver_map(ConstantDen(np.inf), VE, spec,
                                      times)(x),
    lambda spec, times, x: solver_map(ConstantDen(np.inf), VE, spec,
                                      times)(x, jacobian=True),
    lambda spec, times, x: solve(ConstantDen(np.nan), VE, spec, times,
                                 x_T=x),
    lambda spec, times, x: march_steps(spec, make_steps(
        ConstantDen(np.inf), spec,
        checked_shared(ConstantDen(np.inf), VE, spec, times)), x),
], ids=["solve", "solver_map", "jacobian", "nan", "prebuilt"])
def test_divergence_error_names_step(run):
    spec = SolverSpec(family="euler", order=1, nfe=3)
    times = heuristic_times("uniform", VE, 3)
    with pytest.raises(DivergenceError) as ei:
        run(spec, times, np.zeros(2))
    assert ei.value.step == 0


def test_finite_state_whose_sum_overflows_is_not_divergence():
    # VE Euler with epsilon 0 keeps x: the check must test each entry, as
    # a sum of (1e308, 1e308) overflows to inf and warns
    spec = SolverSpec(family="euler", order=1, nfe=3)
    x_T = np.array([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve(ConstantDen(0.0), VE, spec,
                    heuristic_times("uniform", VE, 3), x_T=x_T)
    np.testing.assert_array_equal(out, x_T)


@pytest.mark.parametrize("nfe", [1, 2, 5])
@pytest.mark.parametrize("sched", [VE, VP], ids=["ve", "vp"])
@pytest.mark.parametrize("family,order", [
    ("euler", 1), ("dpmpp", 1), ("dpmpp", 2), ("ipndm", 1), ("ipndm", 2),
    ("ipndm", 3), ("ipndm", 4)])
def test_coeffs_transpose_equals_the_taped_table(family, order, sched, nfe):
    """The banded transpose gives the times' gradient that a tape of
    `coeffs` gives for the same table adjoint, to 1e-12."""
    spec = SolverSpec(family=family, order=order, nfe=nfe)
    times = heuristic_times("edm", sched, nfe)
    tape = en.Tape()
    tv = tape.leaf(times)
    table = coeffs(sched, spec, tv)
    g = np.cos(np.arange(table.data.size)).reshape(table.data.shape)
    want, = tape.backward([(table, g)], [tv])
    np.testing.assert_allclose(coeffs_transpose(sched, spec, times, g), want,
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
