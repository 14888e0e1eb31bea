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
one op with a closed-form VJP.  It also pushes tangents forward:
epsilon(x, t, tangents=V) returns (eps, J V) with J = d eps / dx, which the
bound's log-det Jacobians march beside the state.  x is one row of shape
(d,) or a batch of rows (B, d) sharing the time t; each batched row equals
its single-row result bit for bit.

A solver grid fixes its query times, so the terms that depend on t alone
are built once per grid by `step_constants`, with vector ops over the
N query times: alpha and sigma, from one `sched.alpha_sigma` (under VE alpha
is ones), then v_k, 2 v_k, c_k = log w_k - (d/2)(log v_k + log 2 pi), the
log weight plus the log-normaliser, and alpha mu_k.  Step i passes their
row i to `epsilon` in place of t.  A query time is the one-row case of the
same build, so epsilon at t_i equals epsilon with row i bit for bit.
Training's learned grid builds them cold and tapes them with
`tape_step_constants`: alpha and sigma as one op each over the query
times, with closed-form VJPs.

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
from .schedule import VE_EDM

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
    """The mixture's epsilon from one row (alpha, sigma, v, 2v, c, alpha mu)
    of time-only terms.

    The value is computed in plain numpy.  When x, alpha or sigma is taped,
    it is recorded as one op over (x, alpha, sigma) whose VJP is the closed
    form of eps = sigma sum_k (gamma_k / v_k) (x - alpha mu_k), gamma the
    softmax of the log terms c_k - |x - alpha mu_k|^2 / (2 v_k), taken from
    one exp pass.
    In the pullback mode that VJP comes back beside the value instead.

    Given tangents V, rows (..., n, d) at a cold x, it returns (eps, J V)
    with J v = sigma [(sum_k gamma_k / v_k) v - sum_k gamma_k (w_k . v) w_k]
    for each row v: u_k = (x - alpha mu_k) / v_k, m = sum_k gamma_k u_k and
    w_k = u_k - m, so the sum is the covariance of u under gamma.
    """
    a, s, v, v2, c, am = row
    xd, ad, sd = en.data_of(x), en.data_of(a), en.data_of(s)
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
        live_a, live_s = type(a) is en.Value, type(s) is en.Value
        if not (live_a or live_s or type(x) is en.Value):
            return sd * acc
    else:
        live_a, live_s = pullback

    def vjp(adj):
        g = sd * adj
        g_r = np.vecdot(g[..., None, :], diff)
        g_gamma = g_r / v
        # softmax, then the log terms' -q/(2v) through q = |diff|^2
        c = gamma * (g_gamma - np.vecdot(gamma, g_gamma)[..., None]) / v
        g_diff = r[..., None] * g[..., None, :] - c[..., None] * diff
        g_x = np.add.reduce(g_diff, axis=-2)
        if not (live_a or live_s):
            return g_x, None, None
        lead = tuple(range(g_r.ndim - 1))
        # v_k = a^2 s_k^2 + s^2 through r_k = gamma_k / v_k and the log terms
        g_v = np.add.reduce(c * (0.5 * q / v - 0.5 * means.shape[1])
                            - g_r * r / v, axis=lead)
        g_a = 2.0 * ad * np.dot(g_v, variances) - np.add.reduce(
            np.add.reduce(g_diff, axis=lead) * means, axis=None) \
            if live_a else None
        g_s = np.add.reduce(adj * acc, axis=None) \
            + 2.0 * sd * np.add.reduce(g_v, axis=None) if live_s else None
        return g_x, g_a, g_s

    if pullback is not None:
        return sd * acc, vjp
    return en.record(sd * acc, (x, a, s), vjp, "gm_epsilon")


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
        """The time-only terms at the checked query times times_c, 0-d or
        (N,): alpha, sigma, then `_gm_table`'s v, 2v, c and alpha mu,
        each with one row per step.  Row i, the tuple of their i-th
        entries, stands in for t_i in `epsilon`.

        Engine-generic in alpha and sigma: on a taped times_c those two are
        taped and the rest is plain numpy made from their data, so the GM
        op keeps (x, alpha_i, sigma_i) as its parents.
        """
        a, s = self.sched.alpha_sigma(times_c)
        return (a, s) + _gm_table(en.data_of(a), en.data_of(s),
                                  self.log_weights, self.means,
                                  self.variances)

    def tape_step_constants(self, consts, times_c):
        """`step_constants` on the taped query times times_c, given consts,
        its cold build at their data: alpha and sigma are taped as one op
        each, whose VJP is its t-derivative from `sched.marginals` (under
        VE alpha is 1 and stays plain), and the rest stays plain, as on a
        taped build.  Training's learned prelude tapes these two ops in
        place of `sched.alpha_sigma`'s fine ones."""
        a, s = consts[:2]
        _, (da, ds, _) = self.sched.marginals(times_c.data)
        if self.sched.family != VE_EDM:
            a = en.record(a, (times_c,), lambda g: (g * da,), "alpha")
        s = en.record(s, (times_c,), lambda g: (g * ds,), "sigma")
        return (a, s) + consts[2:]

    def epsilon(self, x, t, tangents=None, pullback=None):
        """eps(x, t); t is a query time or row i of `step_constants`.

        pullback, a pair of flags (want d alpha_i, want d sigma_i), selects
        the cold pullback mode: at a plain x and row it returns (eps, vjp),
        vjp(adj) -> (g_x, g_alpha_i, g_sigma_i) with None where unwanted.
        """
        if type(t) is not tuple:
            t = self.step_constants(self.sched.check_domain(t))
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
