"""Exact epsilon predictors for Gaussian-mixture data.

The predictor implements epsilon(x, t) -> noise estimate in the convention

    eps(x, t) = -sigma_t * grad_x log q_t(x),

where q_t is the forward marginal of the data distribution under the noise
schedule.  For a Gaussian mixture with isotropic components
N(mu_k, s_k^2 I) the marginal is the mixture of N(alpha_t mu_k,
(alpha_t^2 s_k^2 + sigma_t^2) I) and the score is a responsibility-weighted
combination, so epsilon is available in closed form.  A point mass x0 is
the one-component mixture at variance 0: then v = sigma_t^2 and
eps = (x - alpha_t x0) / sigma_t, J = I / sigma_t, to rounding.

Every epsilon can be evaluated inside a differentiated solver graph
(gradients flow to x and t): it is computed in plain numpy and taped as
one op over (x, t) with a closed-form VJP.  It also pushes tangents
forward: epsilon(x, t, tangents=V) returns (eps, J V) with J = d eps / dx,
which the bound's log-det Jacobians march beside the state.  x is one row
of shape (d,) or a batch of rows (B, d) sharing the time t; each batched
row equals its single-row result bit for bit.

A solver grid fixes its query times, so the terms that depend on t alone
are built once per grid by `step_constants`, with vector ops over the
N plain query times: alpha and sigma, then v_k, 2 v_k,
c_k = log w_k - (d/2)(log v_k + log 2 pi), the log weight plus the
log-normaliser, and alpha mu_k, then alpha' and sigma', all from one
`sched.alpha_sigma_slopes` (under VE alpha is ones, alpha' zeros).  Step i
passes its row, t^c_i followed by their i-th entries, to `epsilon` in
place of t.  A query time is the one-row case of the same build, so
epsilon at t_i equals epsilon with row i bit for bit.  The VJP's t
gradient is g_t = g_sigma sigma' + g_alpha alpha', with no alpha adjoint
where alpha' is 0; in the pullback mode it comes back as (g_x, g_t).  So
a grid's only differentiable step constant is its query time.

Each call then forms the log terms c_k - |x - alpha mu_k|^2 / (2 v_k) and
takes the responsibilities from one exp pass, gamma = e / sum_k e with
e = exp(terms - max_k terms): no log, one exp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import engine as en
from . import rng as rngmod

_LOG_2PI = float(np.log(2.0 * np.pi))


def _gm_table(ad, sd, log_w, means, variances):
    """Plain numpy: the time-only terms of the mixture at alphas ad and
    sigmas sd, both 0-d or (n,): the (..., K) arrays v_k = a^2 s_k^2 + s^2,
    2 v and c_k = log w_k - (d/2)(log v_k + log 2 pi), and the (..., K, d)
    array a mu_k."""
    ad, sd = np.asarray(ad), np.asarray(sd)
    a, s = ad[..., None], sd[..., None]
    v = a * a * variances + s * s
    c = log_w - 0.5 * means.shape[1] * (np.log(v) + _LOG_2PI)
    return v, 2.0 * v, c, ad[..., None, None] * means


def _gm_kernel(x, row, means, variances, tangents, pullback):
    """The mixture's epsilon from one row (t, alpha, sigma, v, 2v, c,
    alpha mu, alpha', sigma') of a query time and its time-only terms.

    The value is computed in plain numpy.  When x or t is taped, it is
    recorded as one op over (x, t) whose VJP is the closed form of
    eps = sigma sum_k (gamma_k / v_k) (x - alpha mu_k), gamma the softmax
    of the log terms c_k - |x - alpha mu_k|^2 / (2 v_k), taken from one
    exp pass; t's gradient chains those of alpha and sigma with alpha'
    and sigma'.  In the pullback mode that VJP comes back beside the
    value instead.

    Given tangents V, rows (..., n, d) at a cold x, it returns (eps, J V)
    with J v = sigma [(sum_k gamma_k / v_k) v - sum_k gamma_k (w_k . v) w_k]
    for each row v: u_k = (x - alpha mu_k) / v_k, m = sum_k gamma_k u_k and
    w_k = u_k - m, so the sum is the covariance of u under gamma.
    """
    t, ad, sd, v, v2, c, am, da, ds = row
    xd = en.data_of(x)
    diff = xd[..., None, :] - am
    q = np.vecdot(diff, diff)
    terms = c - q / v2
    e = np.exp(terms - np.maximum.reduce(terms, axis=-1, keepdims=True))
    gamma = e / np.add.reduce(e, axis=-1, keepdims=True)
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
    if pullback is None:
        live_t = type(t) is en.Value
        if not (live_t or type(x) is en.Value):
            return sd * acc
    else:
        live_t = pullback

    def vjp(adj):
        g = sd * adj
        g_r = np.vecdot(g[..., None, :], diff)
        g_gamma = g_r / v
        # softmax, then the log terms' -q/(2v) through q = |diff|^2
        c = gamma * (g_gamma - np.vecdot(gamma, g_gamma)[..., None]) / v
        g_diff = r[..., None] * g[..., None, :] - c[..., None] * diff
        g_x = np.add.reduce(g_diff, axis=-2)
        if not live_t:
            return g_x, None
        lead = tuple(range(g_r.ndim - 1))
        # v_k = a^2 s_k^2 + s^2 through r_k = gamma_k / v_k and the log terms
        g_v = np.add.reduce(c * (0.5 * q / v - 0.5 * means.shape[1])
                            - g_r * r / v, axis=lead)
        g_t = (np.add.reduce(adj * acc, axis=None)
               + 2.0 * sd * np.add.reduce(g_v, axis=None)) * ds
        if da:  # alpha is constant under VE
            g_t = g_t + (2.0 * ad * np.dot(g_v, variances) - np.add.reduce(
                np.add.reduce(g_diff, axis=lead) * means, axis=None)) * da
        return g_x, g_t

    if pullback is not None:
        return sd * acc, vjp
    return en.record(sd * acc, (x, t), vjp, "gm_epsilon")


@dataclass(frozen=True)
class GMDenoiser:
    """Gaussian-mixture data distribution with its exact epsilon predictor."""

    sched: object
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @classmethod
    def create(cls, sched, weights, means, variances):
        weights = np.asarray(weights, dtype=np.float64)
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64)
        if means.ndim != 2:
            raise ValueError("means must be (K, d)")
        if weights.shape != (means.shape[0],) or variances.shape != weights.shape:
            raise ValueError("weights/variances must be (K,)")
        if not (np.all(weights > 0) and np.all(variances >= 0)):  # NaN fails
            raise ValueError("weights must be positive and variances >= 0")
        weights = weights / weights.sum()
        return cls(sched=sched, weights=weights, means=means, variances=variances)

    @property
    def d(self):
        return self.means.shape[1]

    @cached_property
    def log_weights(self):
        return np.log(self.weights)

    def step_constants(self, times_c):
        """The time-only terms at the plain query times times_c, one time
        or (N,): alpha and sigma, `_gm_table`'s v, 2v, c and alpha mu, then
        alpha' and sigma', their t-derivatives, each with one row per
        step.  A grid's row i, t^c_i followed by their i-th entries,
        stands in for t_i in `epsilon`."""
        (a, s), (da, ds) = self.sched.alpha_sigma_slopes(
            np.asarray(times_c, dtype=np.float64))
        return (a, s) + _gm_table(a, s, self.log_weights, self.means,
                                  self.variances) + (da, ds)

    def epsilon(self, x, t, tangents=None, pullback=None):
        """eps(x, t); t is a query time, plain or taped, or a grid's row.

        pullback, a flag (want d t), selects the cold pullback mode: at a
        plain x and row it returns (eps, vjp), vjp(adj) -> (g_x, g_t) with
        g_t None when unwanted.
        """
        if type(t) is not tuple:
            t = (t,) + self.step_constants(
                en.data_of(self.sched.check_domain(t)))
        return _gm_kernel(x, t, self.means, self.variances, tangents,
                          pullback)

    def sample_data(self, count, seed):
        """Exact samples from the mixture, one substream per index."""
        cum = np.cumsum(self.weights)
        out = np.empty((count, self.d), dtype=np.float64)
        for i, g in enumerate(rngmod.substreams(seed, "gm_data", count)):
            k = int(np.searchsorted(cum, g.random()))
            k = min(k, len(cum) - 1)
            out[i] = self.means[k] + np.sqrt(self.variances[k]) * g.standard_normal(self.d)
        return out
