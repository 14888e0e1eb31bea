"""The mixture epsilon's one-exp-pass softmax against the kernel it replaced.

`logsumexp_epsilon` below is the earlier kernel kept as the oracle: its
time-only terms leave log w_k out of c_k and add it on every call, and its
responsibilities are exp(terms - logsumexp(terms)), two exps and a log.
The fast path folds log w_k into the per-grid c_k and takes
gamma = e / sum e from one e = exp(terms - max terms).  The two round
differently, so they are compared to a bound: for each output array, the
largest entrywise difference over the largest oracle entry, in units of
float64 epsilon (ulps of the array's scale).  Covered: epsilon, J V, the
pullback VJP and the taped VJP, under VE and VP, for K = 1, 3 and 4
components, 1 and 8 rows, at 1.5 t_min, 0.3 T and T, plus terms spread
by about 700 and 800 nats (the farthest share falls to 1e-304, then
underflows to 0) and exactly tied terms.  `pytest -s` prints the worst observed in each case.

Where long double is wider than float64, both are also measured against
the fast kernel evaluated in long double on the same float64 row: the
differences above are the oracle's own rounding, since its
exp(terms - lse) carries about |terms| ulps of error into gamma.
"""

import numpy as np
import pytest

import steplab.engine as en
from steplab.denoisers import GMDenoiser, _gm_kernel
from steplab.rng import sample_prior
from steplab.schedule import ve_edm, vp_linear

SCHEDS = {"ve": ve_edm(), "vp": vp_linear()}
VALUE_ULPS, GRAD_ULPS = 64.0, 8192.0
LONG_DOUBLE_ULPS = 4.0
_LOG_2PI = float(np.log(2.0 * np.pi))


def logsumexp_epsilon(den, x, t, tangents=None, pullback=None):
    """The earlier kernel: epsilon of den at a query time t, by
    exp(terms - logsumexp(terms)), in the same modes as den.epsilon.  Like
    it, it is differentiated in t through alpha' and sigma', so the two
    differ only in the softmax."""
    means, variances = den.means, den.variances
    td = np.asarray(en.data_of(den.sched.check_domain(t)), dtype=np.float64)
    (ad, sd, _), (da, ds, _) = den.sched.marginals(td)
    xd = en.data_of(x)
    v = ad * ad * variances + sd * sd
    v2 = 2.0 * v
    c = -0.5 * means.shape[1] * (np.log(v) + _LOG_2PI)
    diff = xd[..., None, :] - ad * means
    q = np.vecdot(diff, diff)
    terms = np.log(den.weights) + (c - q / v2)
    m = np.maximum.reduce(terms, axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.add.reduce(np.exp(terms - m), axis=-1))
    gamma = np.exp(terms - lse[..., None])
    r = gamma / v
    acc = np.add.reduce(r[..., None] * diff, axis=-2)
    if tangents is not None:
        w = diff / v[:, None] - acc[..., None, :]
        g = gamma[..., None, :] * np.vecdot(tangents[..., None, :],
                                            w[..., None, :, :])
        wt = w.mT[..., None, :, :]
        jv = (np.add.reduce(r, axis=-1)[..., None, None] * tangents
              - np.vecdot(g[..., None, :], wt))
        return sd * acc, sd * jv
    live_t = pullback if pullback is not None else type(t) is en.Value

    def vjp(adj):
        g = sd * adj
        g_r = np.vecdot(g[..., None, :], diff)
        g_gamma = g_r / v
        cg = gamma * (g_gamma - np.vecdot(gamma, g_gamma)[..., None]) / v
        g_diff = r[..., None] * g[..., None, :] - cg[..., None] * diff
        g_x = np.add.reduce(g_diff, axis=-2)
        if not live_t:
            return g_x, None
        lead = tuple(range(g_r.ndim - 1))
        g_v = np.add.reduce(cg * (0.5 * q / v - 0.5 * means.shape[1])
                            - g_r * r / v, axis=lead)
        g_a = 2.0 * ad * np.dot(g_v, variances) - np.add.reduce(
            np.add.reduce(g_diff, axis=lead) * means, axis=None)
        g_s = np.add.reduce(adj * acc, axis=None) \
            + 2.0 * sd * np.add.reduce(g_v, axis=None)
        return g_x, g_s * ds + g_a * da

    if pullback is not None:
        return sd * acc, vjp
    return en.record(sd * acc, (x, t), vjp, "gm_epsilon")


def ulps(got, want):
    """max |got - want| over max |want|, in units of float64 epsilon."""
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.max(np.abs(want)))
    if scale == 0.0:
        return 0.0 if np.array_equal(got, want) else np.inf
    return float(np.max(np.abs(got - want))) / (scale * np.finfo(float).eps)


def check_modes(den, x, t):
    """Every mode of den.epsilon against the oracle: the worst difference
    of the values (epsilon, J V) and of the VJPs (pullback and taped), in
    ulps of each output's scale."""
    g = np.random.default_rng(5)
    cot = g.standard_normal(x.shape)
    v = g.standard_normal(x.shape[:-1] + (2, x.shape[-1]))
    values = [(den.epsilon(x, t), logsumexp_epsilon(den, x, t))]
    values += zip(den.epsilon(x, t, tangents=v),
                  logsumexp_epsilon(den, x, t, tangents=v))
    row = (t,) + den.step_constants(den.sched.check_domain(t))
    (e1, back1), (e2, back2) = (
        den.epsilon(x, row, pullback=True),
        logsumexp_epsilon(den, x, t, pullback=True))
    values.append((e1, e2))
    grads = list(zip(back1(cot), back2(cot)))
    taped = []
    for fn in (GMDenoiser.epsilon, logsumexp_epsilon):
        tape = en.Tape()
        xv, tv = tape.leaf(x), tape.leaf(t)
        taped.append(tape.backward([(fn(den, xv, tv), cot)], [xv, tv]))
    grads += zip(*taped)
    return (max(ulps(a, b) for a, b in values),
            max(ulps(a, b) for a, b in grads))


def report(label, worst):
    value, grad = worst
    print(f"one-exp vs logsumexp, {label}: values {value:.1f} ulps "
          f"(bound {VALUE_ULPS:.0f}), VJPs {grad:.1f} ulps "
          f"(bound {GRAD_ULPS:.0f})")
    assert value <= VALUE_ULPS and grad <= GRAD_ULPS


def worst_of(pairs):
    return tuple(max(p[i] for p in pairs) for i in (0, 1))


def random_mixture(sched, k, seed):
    g = np.random.default_rng(seed)
    return GMDenoiser.create(sched, g.uniform(0.2, 1.0, k),
                             2.0 * g.standard_normal((k, 3)),
                             g.uniform(0.1, 0.5, k))


@pytest.mark.parametrize("rows", [1, 8])
@pytest.mark.parametrize("k", [1, 3, 4])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_one_exp_epsilon_matches_logsumexp_kernel(sched_name, k, rows):
    sched = SCHEDS[sched_name]
    den = random_mixture(sched, k, 30 + k)
    xs = sample_prior(sched, 3, rows, 40 + k)
    x = xs if rows > 1 else xs[0]
    worst = worst_of([check_modes(den, x, t)
                      for t in (1.5 * sched.t_min, 0.3 * sched.T, sched.T)])
    report(f"{sched_name} K={k} B={rows}", worst)
    if k == 1:  # gamma = 1 exactly either way
        assert worst == (0.0, 0.0)


@pytest.mark.parametrize("spread", [700.0, 800.0])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_one_exp_epsilon_matches_logsumexp_kernel_far_apart(sched_name,
                                                            spread):
    """Three components whose log terms at x = 0 lie 0, spread / 2 and
    spread nats below the top one at t = 1.5 t_min: the farthest
    component's share is about 1e-304 at 700 and underflows to 0 at 800."""
    sched = SCHEDS[sched_name]
    t = 1.5 * sched.t_min
    a, s = (float(en.data_of(u)) for u in sched.alpha_sigma(t))
    var = 0.5
    v = a * a * var + s * s
    # q / (2 v) = (a D)^2 / (2 v) at x = 0 for a mean at distance D
    dist = [np.sqrt(2.0 * v * n) / a for n in (0.0, spread / 2, spread)]
    means = np.array([[d, 0.0, 0.0] for d in dist])
    den = GMDenoiser.create(sched, (1.0, 1.0, 1.0), means, (var,) * 3)
    x = np.zeros((8, 3))
    x[:, 1:] = 0.1 * np.random.default_rng(6).standard_normal((8, 2))
    report(f"{sched_name} spread {spread:.0f}",
           worst_of([check_modes(den, x, t), check_modes(den, x[0], t)]))


@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_one_exp_epsilon_matches_logsumexp_kernel_tied(sched_name):
    """Two equal-weight, equal-variance components mirrored about the
    plane x_0 = 0: on it their log terms tie exactly, and the one-exp
    gamma is 1/2 exactly."""
    sched = SCHEDS[sched_name]
    means = np.array([[1.5, 0.5, 0.0], [-1.5, 0.5, 0.0]])
    den = GMDenoiser.create(sched, (0.5, 0.5), means, (0.3, 0.3))
    x = np.zeros((8, 3))
    x[:, 1:] = np.random.default_rng(7).standard_normal((8, 2))
    worst = []
    for t in (1.5 * sched.t_min, 0.3 * sched.T, sched.T):
        worst += [check_modes(den, x, t), check_modes(den, x[0], t)]
        _, s, v, _, _, am, _, _ = den.step_constants(t)
        r = 0.5 / v  # gamma_k / v_k at gamma = 1/2
        want = s * (r[0] * (x - am[0]) + r[1] * (x - am[1]))
        assert np.array_equal(den.epsilon(x, t), want)
    report(f"{sched_name} tied", worst_of(worst))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is float64 on this platform")
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_one_exp_epsilon_is_within_few_ulps_of_long_double(sched_name):
    """The float64 epsilon against the same kernel run in long double on
    the same row; the oracle's distance is printed beside it."""
    sched = SCHEDS[sched_name]
    ld = np.longdouble
    worst_new = worst_old = 0.0
    for k in (3, 4):
        den = random_mixture(sched, k, 30 + k)
        for x in (sample_prior(sched, 3, 8, 40 + k),
                  sample_prior(sched, 3, 1, 40 + k)[0]):
            for t in (1.5 * sched.t_min, 0.3 * sched.T, sched.T):
                row = (t,) + den.step_constants(t)
                want = _gm_kernel(x.astype(ld), tuple(np.asarray(c, ld)
                                                      for c in row),
                                  den.means.astype(ld),
                                  den.variances.astype(ld), None, None)
                worst_new = max(worst_new, ulps(den.epsilon(x, row), want))
                worst_old = max(worst_old,
                                ulps(logsumexp_epsilon(den, x, t), want))
    print(f"epsilon vs long double, {sched_name}: one-exp {worst_new:.1f} "
          f"ulps (bound {LONG_DOUBLE_ULPS:.0f}), logsumexp {worst_old:.1f}")
    assert worst_new <= LONG_DOUBLE_ULPS
