"""Denoisers: the mixture epsilon against an independent scipy density
oracle, closed-form anchors, its taped VJP against finite differences,
input validation and exact sampling."""

import numpy as np
import pytest
from scipy import stats

import steplab.engine as en
from pointmass import point_mass
from steplab.denoisers import GMDenoiser
from steplab.discretize import heuristic_times
from steplab.schedule import ve_edm, vp_linear

VE = ve_edm()

WEIGHTS = np.array([0.5, 0.3, 0.2])
MEANS = np.array([[2.0, 1.0], [-1.4, 1.8], [0.3, -2.2]])
VARS = np.array([0.25, 0.16, 0.36])


def make_gm(sched=VE):
    return GMDenoiser.create(sched, WEIGHTS, MEANS, VARS)


def scipy_log_marginal(x, t, sched, weights, means, variances):
    """Independent oracle: mixture marginal density via scipy pdfs."""
    a = float(en.data_of(sched.alpha_sigma(t)[0]))
    s = float(en.data_of(sched.sigma(t)))
    dens = 0.0
    for w, mu, v in zip(weights, means, variances):
        cov = (a * a * v + s * s) * np.eye(len(mu))
        dens += w * stats.multivariate_normal.pdf(x, mean=a * mu, cov=cov)
    return np.log(dens)


def oracle_epsilon(x, t, sched, weights, means, variances, eps=1e-6):
    """-sigma * grad log q_t via finite differences of the scipy oracle."""
    s = float(en.data_of(sched.sigma(t)))
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (scipy_log_marginal(xp, t, sched, weights, means, variances)
                - scipy_log_marginal(xm, t, sched, weights, means, variances)
                ) / (2 * eps)
    return -s * g


@pytest.mark.parametrize("sched,ts", [(VE, (0.002, 0.7, 11.0, 80.0)),
                                      (vp_linear(), (0.001, 0.3, 0.97))])
def test_gm_epsilon_matches_density_gradient(sched, ts):
    pts = [np.array([0.0, 0.0]), np.array([2.5, -1.0]), np.array([-3.0, 4.0])]
    for t in ts:
        for x in pts:
            got = GMDenoiser(sched, WEIGHTS, MEANS, VARS).epsilon(x, t)
            want = oracle_epsilon(x, t, sched, WEIGHTS, MEANS, VARS)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)


def test_single_component_anchor():
    # mu=0, s=1, VE, t=1, x=(2,): sigma (x - alpha mu) / (alpha^2 s^2 + sigma^2) = 1
    got = GMDenoiser(VE, np.array([1.0]), np.array([[0.0]]),
                     np.array([1.0])).epsilon(np.array([2.0]), 1.0)
    np.testing.assert_allclose(got, np.array([1.0]), atol=1e-14)


def test_epsilon_zero_at_scaled_mean():
    got = GMDenoiser(VE, np.array([1.0]), np.array([[0.0]]),
                     np.array([1.0])).epsilon(np.array([0.0]), 0.5)
    np.testing.assert_allclose(got, 0.0, atol=1e-14)


def test_symmetric_pair_cancels_at_origin():
    got = GMDenoiser(VE, np.array([0.5, 0.5]),
                     np.array([[1.5, 0.5], [-1.5, -0.5]]),
                     np.array([0.3, 0.3])).epsilon(np.array([0.0, 0.0]), 2.0)
    np.testing.assert_allclose(got, np.zeros(2), atol=1e-14)


def test_translation_equivariance():
    c = np.array([3.7, -2.1])
    x = np.array([0.4, 0.9])
    base = GMDenoiser(VE, WEIGHTS, MEANS, VARS).epsilon(x, 1.3)
    shifted = GMDenoiser(VE, WEIGHTS, MEANS + c, VARS).epsilon(x + c, 1.3)
    np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=1e-12)


def test_point_epsilon_examples():
    x0 = np.array([1.0, -1.0])
    np.testing.assert_allclose(point_mass(VE, x0).epsilon(x0, 5.0),
                               np.zeros(2))
    got = point_mass(VE, np.zeros(2)).epsilon(np.array([4.0, 0.0]), 2.0)
    np.testing.assert_allclose(got, np.array([2.0, 0.0]))


POINT_ULPS = 8  # observed worst: 2 ulps under VE, 3 under VP


@pytest.mark.parametrize("sched", [VE, vp_linear()], ids=["ve", "vp"])
def test_point_is_the_zero_variance_gm(sched):
    """At variance 0 the mixture's epsilon is (x - alpha x0) / sigma and its
    Jacobian is I / sigma, to rounding: each entry within POINT_ULPS ulps of
    the closed form, for one row and for a batch."""
    x0 = np.array([0.3, 0.8])
    den = point_mass(sched, x0)
    g = np.random.default_rng(22)
    worst = 0.0
    for t in heuristic_times("logsnr", sched, 40):
        a, s = (float(en.data_of(c)) for c in sched.alpha_sigma(t))
        for shape in ((2,), (8, 2)):
            x = a * x0 + (s + 1.0) * g.standard_normal(shape)
            v = g.standard_normal(shape + (2,))
            eps, jv = den.epsilon(x, t, tangents=v)
            assert same_bits(den.epsilon(x, t), eps)
            for got, want in ((eps, (x - a * x0) / s), (jv, v / s)):
                ulps = np.abs(got - want) / np.spacing(np.abs(want))
                worst = max(worst, float(ulps.max()))
    print(f"point as zero-variance GM: worst {worst:g} ulps, "
          f"bound {POINT_ULPS}")
    assert worst <= POINT_ULPS


def test_gm_epsilon_differentiable_in_x_and_t():
    den = make_gm()
    tape = en.Tape()
    x = tape.leaf(np.array([1.0, -0.5]))
    t = tape.leaf(2.0)
    out = den.epsilon(x, t)
    gx, gt = tape.backward([(out, np.ones(2))], [x, t])
    assert np.all(np.isfinite(gx)) and np.isfinite(gt)


@pytest.mark.parametrize("sched", [VE, vp_linear()], ids=["ve", "vp"])
def test_gm_epsilon_vjp_matches_finite_differences(sched):
    """The one taped op's closed-form VJP in x and t, for a batch and a
    single row, against central differences of the plain forward."""
    g = np.random.default_rng(6)
    den = GMDenoiser(sched, WEIGHTS, MEANS, VARS)
    for x in (g.standard_normal((3, 2)), g.standard_normal(2)):
        w = g.standard_normal(x.shape)
        for t in (0.05 * sched.T, 0.4 * sched.T, 0.9 * sched.T):
            tape = en.Tape()
            xv, tv = tape.leaf(x), tape.leaf(t)
            out = den.epsilon(xv, tv)
            gx, gt = tape.backward([(out, w)], [xv, tv])

            def f(xx, tt):
                return float(np.sum(w * den.epsilon(xx, tt)))

            h = 1e-6
            fd_x = np.zeros_like(x)
            for i in np.ndindex(x.shape):
                e = np.zeros_like(x)
                e[i] = h
                fd_x[i] = (f(x + e, t) - f(x - e, t)) / (2 * h)
            ht = 1e-6 * t
            fd_t = (f(x, t + ht) - f(x, t - ht)) / (2 * ht)
            assert np.max(np.abs(gx - fd_x)) <= 1e-4 * max(1.0, np.max(
                np.abs(fd_x)))
            assert abs(gt - fd_t) <= 1e-4 * max(1.0, abs(fd_t))


def test_gm_epsilon_rejects_mixed_tapes():
    x = en.Tape().leaf(np.array([1.0, -0.5]))
    t = en.Tape().leaf(2.0)
    with pytest.raises(en.EngineError, match="different tapes"):
        make_gm().epsilon(x, t)


def test_gm_create_validation():
    with pytest.raises(ValueError):
        GMDenoiser.create(VE, np.array([0.5, -0.5]), MEANS[:2], VARS[:2])
    with pytest.raises(ValueError):
        GMDenoiser.create(VE, WEIGHTS, MEANS.ravel(), VARS)
    with pytest.raises(ValueError):
        GMDenoiser.create(VE, WEIGHTS[:2], MEANS[:2], np.array([np.nan, 0.2]))
    with pytest.raises(ValueError):
        GMDenoiser.create(VE, WEIGHTS[:2], MEANS[:2], np.array([-1e-12, 0.2]))
    point = GMDenoiser.create(VE, (1.0,), MEANS[:1], (0.0,))
    assert point.variances.tolist() == [0.0]  # the point mass is accepted
    den = GMDenoiser.create(VE, np.array([2.0, 2.0]), MEANS[:2], VARS[:2])
    assert abs(den.weights.sum() - 1.0) < 1e-12  # unnormalized input accepted


def test_gm_sample_data_statistics():
    den = make_gm()
    xs = den.sample_data(4000, seed=7)
    want_mean = WEIGHTS @ MEANS
    np.testing.assert_allclose(xs.mean(axis=0), want_mean, atol=0.1)
    again = den.sample_data(4000, seed=7)
    np.testing.assert_array_equal(xs, again)


# ------------------------------------------------- per-grid step constants


def grid_times(sched, nfe):
    """A grid's N query times, kept off the heuristic nodes."""
    times = heuristic_times("logsnr", sched, nfe)[:-1]
    wiggle = 1.0 + 0.01 * np.sin(np.arange(nfe))
    return np.clip(times * wiggle, sched.t_min, sched.T)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("kind", ["gm", "point"])
@pytest.mark.parametrize("sched", [VE, vp_linear()], ids=["ve", "vp"])
def test_row_epsilon_equals_time_epsilon_bit_for_bit(sched, kind):
    """Row i of the vector-built constants gives epsilon(x, t_i) exactly,
    with and without tangents, for one row and for batches."""
    den = make_gm(sched) if kind == "gm" else \
        point_mass(sched, np.array([1.0, -1.0]))
    g = np.random.default_rng(16)
    for nfe in (4, 16, 100):
        times_c = grid_times(sched, nfe)
        consts = den.step_constants(times_c)
        assert all(np.shape(c)[0] == nfe for c in consts)
        for i in range(nfe):
            row = tuple(c[i] for c in consts)
            for shape in ((2,), (1, 2), (8, 2), (64, 2)):
                x = sched.sigma_T * g.standard_normal(shape)
                assert same_bits(den.epsilon(x, row),
                                 den.epsilon(x, times_c[i]))
            v = g.standard_normal((8, 2, 2))
            got = den.epsilon(x[:8], row, tangents=v)
            want = den.epsilon(x[:8], times_c[i], tangents=v)
            assert all(same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("sched", [VE, vp_linear()], ids=["ve", "vp"])
def test_vector_built_terms_equal_per_time_terms(sched):
    den = make_gm(sched)
    for nfe in (4, 16, 100):
        times_c = grid_times(sched, nfe)
        consts = den.step_constants(times_c)
        for i, t in enumerate(times_c):
            one = den.step_constants(t)  # the one-row case of the build
            assert all(same_bits(c[i], w) for c, w in zip(consts, one))


def test_taped_row_keeps_alpha_sigma_as_parents():
    """On a taped grid only alpha and sigma are taped; the row epsilon's
    gradients equal the time epsilon's."""
    sched = vp_linear()
    den = make_gm(sched)
    times_c = grid_times(sched, 4)
    x = np.array([0.3, -0.7])
    w = np.array([1.0, 2.0])
    tape = en.Tape()
    tv, xv = tape.leaf(times_c), tape.leaf(x)
    consts = den.step_constants(tv)
    assert [type(c) is en.Value for c in consts] == [True, True] + [False] * 4
    out = den.epsilon(xv, tuple(en.index(c, 2) for c in consts))
    gx, gt = tape.backward([(out, w)], [xv, tv])
    tape2 = en.Tape()
    t2, x2 = tape2.leaf(times_c[2]), tape2.leaf(x)
    out2 = den.epsilon(x2, t2)
    gx2, gt2 = tape2.backward([(out2, w)], [x2, t2])
    assert same_bits(out.data, out2.data) and same_bits(gx, gx2)
    assert same_bits(gt[2], gt2)
    assert np.count_nonzero(gt) == 1
