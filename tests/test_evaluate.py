"""Metrics against closed forms and scipy, Jacobian log-determinants against
finite differences, closed forms and the taped oracle, and the shapes of
the experiment drivers."""

import numpy as np
import pytest
from scipy import stats

import steplab.engine as en
from logdets import collapse_map, taped_log_abs_det_jacobian
from pointmass import point_mass
from steplab import cli, rng
from steplab.denoisers import GMDenoiser
from steplab.discretize import heuristic_times
from steplab.evaluate import (BoundReport, JacobianError,
                              bound_closed_terms, cross_eval, estimate_bound,
                              log_abs_det_jacobian, rmsd, solve_batch,
                              solver_map, sweep_r, w1, w1_1d)
from steplab.schedule import ve_edm, vp_linear
from steplab.solvers import ORDERS, SolverSpec, solve
from steplab.training import Dataset, Teacher, TrainConfig, generate_dataset

VE = ve_edm()
VP = vp_linear()
GM_PARAMS = (np.array([0.5, 0.3, 0.2]),
             np.array([[2.0, 1.0], [-1.4, 1.8], [0.3, -2.2]]),
             np.array([0.25, 0.16, 0.36]))
GM = GMDenoiser.create(VE, *GM_PARAMS)
CFG = TrainConfig(epochs_phase1=1, epochs_phase2=1, seed=0)


def small_dataset(count=6, teacher_nfe=30, seed=0):
    teacher = Teacher.create(GM, VE, nfe=teacher_nfe)
    return generate_dataset(GM, VE, teacher, count, seed)


# -------------------------------------------------------------------- metrics


def test_rmsd_identical_is_zero():
    a = np.arange(12.0).reshape(4, 3)
    assert rmsd(a, a) == 0.0


def test_rmsd_constant_offset():
    a = np.arange(12.0).reshape(4, 3)
    assert rmsd(a, a + 0.7) == pytest.approx(0.7, abs=1e-14)
    assert rmsd(a, a - 0.7) == pytest.approx(0.7, abs=1e-14)


def test_rmsd_symmetry_and_shape_check():
    g = np.random.default_rng(0)
    a, b = g.normal(size=(5, 2)), g.normal(size=(5, 2))
    assert rmsd(a, b) == rmsd(b, a)
    with pytest.raises(ValueError):
        rmsd(a, b[:3])


def test_w1_1d_anchor():
    assert w1_1d([0.0, 1.0], [0.0, 3.0]) == 1.0


def test_w1_1d_matches_scipy():
    g = np.random.default_rng(1)
    for _ in range(5):
        a, b = g.normal(size=40), g.normal(size=40) + 0.5
        assert w1_1d(a, b) == pytest.approx(
            stats.wasserstein_distance(a, b), rel=1e-12)


def test_w1_1d_permutation_invariant():
    g = np.random.default_rng(2)
    a, b = g.normal(size=16), g.normal(size=16)
    ref = w1_1d(a, b)
    assert w1_1d(g.permutation(a), g.permutation(b)) == ref


def test_w1_1d_triangle_inequality():
    g = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = (g.normal(size=10) for _ in range(3))
        assert w1_1d(a, c) <= w1_1d(a, b) + w1_1d(b, c) + 1e-12


def test_w1_averages_columns():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 2.0], [3.0, 2.0]])
    # column 0: W1({0,1},{0,3}) = 1; column 1: W1({0,0},{2,2}) = 2
    assert w1(a, b) == 1.5
    with pytest.raises(ValueError):
        w1(a[0], b[0])


# ------------------------------------------------------------ log-det Jacobian


# The taped oracle on maps with known Jacobians.


def test_logdet_identity_map_is_zero():
    assert taped_log_abs_det_jacobian(lambda x: x,
                                      np.array([0.3, -0.8])) == 0.0


def test_logdet_scaling_map():
    got = taped_log_abs_det_jacobian(lambda x: en.mul(x, -2.5), np.zeros(2))
    assert got == pytest.approx(2 * np.log(2.5), abs=1e-12)


def test_logdet_linear_map_matches_slogdet():
    A = np.array([[1.2, -0.4, 0.1], [0.3, 0.9, -0.2], [-0.5, 0.2, 1.1]])

    def lin(x):
        return en.lincomb(x, (A[:, 0], A[:, 1], A[:, 2]))

    want = np.linalg.slogdet(A)[1]
    got = taped_log_abs_det_jacobian(lin, np.array([0.1, 0.2, 0.3]))
    assert got == pytest.approx(want, rel=1e-12)


# The tangent march in log_abs_det_jacobian.


def test_logdet_solver_map_matches_finite_differences():
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    times = heuristic_times("logsnr", VE, 4)
    fn = solver_map(GM, VE, spec, times)
    x = np.array([1.3, -0.6]) * VE.sigma_T
    eps = 1e-5 * VE.sigma_T
    jac = np.zeros((2, 2))
    for j in range(2):
        xp, xm = x.copy(), x.copy()
        xp[j] += eps
        xm[j] -= eps
        jac[:, j] = (fn(xp) - fn(xm)) / (2 * eps)
    want = np.linalg.slogdet(jac)[1]
    assert log_abs_det_jacobian(fn, x) == pytest.approx(want, rel=1e-5)


def test_logdet_rejects_large_d_and_singular_maps():
    with pytest.raises(JacobianError):
        log_abs_det_jacobian(lambda x: x, np.zeros(5))

    collapse = collapse_map(lambda x: np.array([0.0, 1.0]))
    with pytest.raises(JacobianError):
        log_abs_det_jacobian(collapse, np.array([1.0, 2.0]))


SPECS = [("euler", 1), ("dpmpp", 1), ("dpmpp", 2), ("ipndm", 1),
         ("ipndm", 2), ("ipndm", 3), ("ipndm", 4)]
SCHEDS = {"ve": VE, "vp": VP}


def denoiser(kind, sched):
    if kind == "point":
        return point_mass(sched, [0.7, -1.2])
    return GMDenoiser.create(sched, *GM_PARAMS)


def logsnr_map(den, sched, family, order, nfe):
    return solver_map(den, sched, SolverSpec(family=family, order=order,
                                             nfe=nfe),
                      heuristic_times("logsnr", sched, nfe))


@pytest.mark.parametrize("kind", ["gm", "point"])
@pytest.mark.parametrize("nfe", [1, 4, 30])
@pytest.mark.parametrize("family,order", SPECS,
                         ids=[f"{f}{o}" for f, o in SPECS])
@pytest.mark.parametrize("sched", list(SCHEDS))
def test_tangent_logdets_match_taped_oracle(sched, family, order, nfe, kind):
    sched = SCHEDS[sched]
    fn = logsnr_map(denoiser(kind, sched), sched, family, order, nfe)
    xs = rng.sample_prior(sched, 2, 3, 11)
    got = log_abs_det_jacobian(fn, xs)
    want = taped_log_abs_det_jacobian(fn, xs)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


POINT_EXACT = ([("ve", f, o) for f, o in SPECS]
               + [("vp", f, o) for f, o in SPECS if f != "euler"])


@pytest.mark.parametrize("nfe", [1, 4, 30])
@pytest.mark.parametrize("sched,family,order", POINT_EXACT,
                         ids=[f"{s}-{f}{o}" for s, f, o in POINT_EXACT])
def test_point_mass_logdet_is_exact(sched, family, order, nfe):
    """A point mass has eps constant along each trajectory, so these
    solvers are exact: x_T maps to a_min x_0 + (s_min / s_T)(x_T - a_T x_0),
    i.e. log |det J| = d log(s_min / s_T) (Euler in t is exact only under
    VE)."""
    sched = SCHEDS[sched]
    fn = logsnr_map(denoiser("point", sched), sched, family, order, nfe)
    s_min = float(en.data_of(sched.sigma(sched.t_min)))
    want = 2 * np.log(s_min / sched.sigma_T)
    got = log_abs_det_jacobian(fn, rng.sample_prior(sched, 2, 3, 12))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("sched", list(SCHEDS))
def test_one_gaussian_teacher_logdet_converges(sched):
    """For N(mu, v I) the flow map is affine with Jacobian (s_min / s_T) I,
    s_t = sqrt(alpha_t^2 v + sigma_t^2); dpmpp2 converges to it at second
    order (NFE 30 -> 100 cuts the error about (100 / 30)^2 = 11 times)."""
    sched, var = SCHEDS[sched], 0.25
    den = GMDenoiser.create(sched, [1.0], [[2.0, 1.0]], [var])

    def s_t(t):
        a, s = sched.alpha_sigma(t)
        return float(np.sqrt(a * a * var + s * s))

    want = 2 * np.log(s_t(sched.t_min) / s_t(sched.T))
    x = np.array([0.3, -0.7]) * sched.sigma_T
    err = {nfe: abs(log_abs_det_jacobian(
        logsnr_map(den, sched, "dpmpp", 2, nfe), x) - want)
        for nfe in (30, 100)}
    assert err[100] <= 3e-3
    assert err[30] / err[100] >= 8.0


def one_gaussian_flow(sched):
    """N(mu, v I) with mu = (2, 1) and v = 0.25: its denoiser, 200 prior
    draws (seed 0) and their exact flow map.  The flow keeps
    (x_t - alpha_t mu) / s_t constant, s_t = sqrt(alpha_t^2 v + sigma_t^2),
    so Psi*(x_T) = alpha_min mu + (s_min / s_T)(x_T - alpha_T mu)."""
    mu, var = np.array([2.0, 1.0]), 0.25
    den = GMDenoiser.create(sched, [1.0], [mu], [var])

    def alpha_s(t):
        a, s = sched.alpha_sigma(t)
        return float(a), float(np.sqrt(a * a * var + s * s))

    a_T, s_T = alpha_s(sched.T)
    a_min, s_min = alpha_s(sched.t_min)
    x_T = rng.sample_prior(sched, 2, 200, 0)
    return den, x_T, a_min * mu + (s_min / s_T) * (x_T - a_T * mu)


@pytest.mark.parametrize("order,bound", [(2, 1e-3), (1, 3e-2)],
                         ids=["dpmpp2", "dpmpp1"])
@pytest.mark.parametrize("sched", list(SCHEDS))
def test_one_gaussian_teacher_map_matches_exact_flow(sched, order, bound):
    """An NFE-100 teacher on the logsnr grid sits within bound of the exact
    one-Gaussian flow map (observed: dpmpp2 3.5e-4 VE / 2.9e-4 VP, dpmpp1
    1.3e-2 / 1.2e-2)."""
    sched = SCHEDS[sched]
    den, x_T, exact = one_gaussian_flow(sched)
    got = rmsd(Teacher.create(den, sched, order=order, nfe=100)
               .solve_many(x_T), exact)
    print(f"{sched.family} dpmpp{order} NFE 100 teacher map RMSD "
          f"{got:.2e} (bound {bound:.0e})")
    assert got <= bound


ORDER_NFES = (20, 40, 80, 160)


@pytest.mark.parametrize("family,order", [(f, o) for f, orders in
                                          ORDERS.items() for o in orders])
@pytest.mark.parametrize("sched", list(SCHEDS))
def test_one_gaussian_convergence_order_against_exact_flow(sched, family,
                                                           order):
    """The log-log slope of the RMSD to the exact flow map over NFE 20-160
    on logsnr grids, gated at 0.85 for order 1 and 1.7 above (observed VE /
    VP: order 1 0.97 / 0.98, euler1 1.11 under VP; dpmpp2 1.95 / 1.96;
    ipndm2 1.97 / 1.98; ipndm3 1.86 / 1.88; ipndm4 2.06 / 2.06).  iPNDM
    orders 3 and 4 converge at second order: their lower-order warm-up
    steps cap the global order.  Below NFE 20 the slopes are
    pre-asymptotic (VP ipndm3 reads -0.77 over NFE 5-40), so no gate goes
    there."""
    sched = SCHEDS[sched]
    den, x_T, exact = one_gaussian_flow(sched)
    errs = [rmsd(logsnr_map(den, sched, family, order, nfe)(x_T), exact)
            for nfe in ORDER_NFES]
    slope = -np.polyfit(np.log(ORDER_NFES), np.log(errs), 1)[0]
    bound = 0.85 if order == 1 else 1.7
    print(f"{sched.family} {family}{order} slope against the exact map "
          f"{slope:.2f} (bound {bound})")
    assert slope >= bound


def test_solver_map_agrees_with_solve():
    spec = SolverSpec(family="ipndm", order=3, nfe=5)
    times = heuristic_times("edm", VE, 5)
    x = np.array([0.4, -1.1]) * VE.sigma_T
    fn = solver_map(GM, VE, spec, times)
    np.testing.assert_array_equal(fn(x), solve(GM, VE, spec, times, None, x))


def test_solve_batch_stacks_single_solves():
    spec = SolverSpec(family="euler", order=1, nfe=3)
    times = heuristic_times("uniform", VE, 3)
    xs = np.random.default_rng(4).normal(size=(3, 2)) * VE.sigma_T
    out = solve_batch(GM, VE, spec, times, None, xs)
    assert out.shape == (3, 2)
    np.testing.assert_array_equal(out[2], solve(GM, VE, spec, times, None,
                                                xs[2]))


# ------------------------------------------------------------------ the bound


def test_bound_closed_terms_anchor():
    term1, term2 = bound_closed_terms(0.192, 3072)
    assert term1 == pytest.approx(0.018432, abs=1e-15)
    assert term2 == pytest.approx(10.643452, abs=1e-6)


def test_estimate_bound_deterministic_and_degenerate_at_r0():
    teach = solver_map(GM, VE, SolverSpec(family="dpmpp", order=2, nfe=8),
                       heuristic_times("logsnr", VE, 8))
    stud = solver_map(GM, VE, SolverSpec(family="dpmpp", order=1, nfe=3),
                      heuristic_times("logsnr", VE, 3))
    rep = estimate_bound(teach, stud, VE, 0.5, 2, 6, seed=0)
    rep2 = estimate_bound(teach, stud, VE, 0.5, 2, 6, seed=0)
    assert rep == rep2
    assert rep.total == rep.term1 + rep.term2 + rep.term3
    assert rep.n_samples == 6 and rep.d == 2

    # r = 0: both closed terms vanish; the sampled point equals the center,
    # so the self-gap of a single map is exactly zero
    rep0 = estimate_bound(teach, teach, VE, 0.0, 2, 4, seed=1)
    assert rep0.term1 == 0.0 and rep0.term2 == 0.0 and rep0.term3 == 0.0


# ---------------------------------------------------------------- experiments


def test_sweep_r_returns_one_row_per_radius():
    ds = small_dataset()
    spec = SolverSpec(family="dpmpp", order=2, nfe=3)
    rows = sweep_r(ds, GM, VE, spec, CFG, [0.0, 0.1, 1.0])
    assert [r for r, _ in rows] == [0.0, 0.1, 1.0]
    assert all(np.isfinite(v) for _, v in rows)


BENCH_GRID_CFG = """\
seed = 0
data.count = 8
solver.nfe = 3
teacher.nfe = 30
train.epochs_phase1 = 1
train.epochs_phase2 = 1
bench.nfes = 3,4
bench.methods = uniform,logsnr,learned
bench.eval_count = 8
bench.rmsd_ref_nfe = 30
"""


def test_bench_rows_covers_every_cell(tmp_path):
    """The bench sweep writes every (method, NFE) cell, NFE-major, and the
    same bytes under --jobs 2."""
    cfg, data = tmp_path / "grid.cfg", tmp_path / "dataset.bin"
    cfg.write_text(BENCH_GRID_CFG)
    assert cli.main(["gen-data", "--config", str(cfg),
                     "--out", str(data)]) == 0
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    for out, jobs in ((out1, "1"), (out2, "2")):
        assert cli.main(["bench", "--config", str(cfg), "--data", str(data),
                         "--out", str(out), "--jobs", jobs]) == 0
    lines = (out1 / "bench.csv").read_text().splitlines()
    assert lines[0] == "method,solver,nfe,teacher_dist,rmsd,w1,seed"
    rows = [line.split(",") for line in lines[1:]]
    assert [(m, n) for m, _, n, *_ in rows] == \
        [("uniform", "3"), ("logsnr", "3"), ("learned", "3"),
         ("uniform", "4"), ("logsnr", "4"), ("learned", "4")]
    for _, solver, _, tdist, rms, ww1, seed in rows:
        assert solver == "dpmpp2" and seed == "0"
        assert float(tdist) >= 0.0 and float(rms) >= 0.0
        assert np.isfinite(float(ww1))
    assert (out1 / "bench.csv").read_bytes() == \
        (out2 / "bench.csv").read_bytes()


def test_cross_eval_shape_and_nfe_check():
    ds = small_dataset()
    specs = [SolverSpec(family="dpmpp", order=1, nfe=3),
             SolverSpec(family="euler", order=1, nfe=3)]
    m = cross_eval(ds, GM, VE, specs, CFG)
    assert m.shape == (2, 2)
    assert np.all(np.isfinite(m))
    single = cross_eval(ds, GM, VE, specs[:1], CFG)
    assert single.shape == (1, 1)
    with pytest.raises(ValueError):
        cross_eval(ds, GM, VE, [specs[0],
                                SolverSpec(family="euler", order=1, nfe=4)],
                   CFG)
