"""Exact epsilon predictors for Gaussian-mixture and point-mass data.

Both predictors implement epsilon(x, t) -> noise estimate in the convention

    eps(x, t) = -sigma_t * grad_x log q_t(x),

where q_t is the forward marginal of the data distribution under the noise
schedule.  For a Gaussian mixture with isotropic components
N(mu_k, s_k^2 I) the marginal is the mixture of N(alpha_t mu_k,
(alpha_t^2 s_k^2 + sigma_t^2) I) and the score is a responsibility-weighted
combination, so epsilon is available in closed form.  For a point mass x0
it reduces to (x - alpha_t x0) / sigma_t.

Every epsilon can be evaluated inside a differentiated solver graph
(gradients flow to x and t).  The point mass is written with engine ops; the
mixture's epsilon is computed in plain numpy and taped as one op with a
closed-form VJP.  Both also push tangents forward: epsilon(x, t,
tangents=V) returns (eps, J V) with J = d eps / dx, which the bound's
log-det Jacobians march beside the state.  x is one row of shape (d,) or a
batch of rows (B, d) sharing the time t; each batched row equals its
single-row result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine as en
from . import rng as rngmod

_LOG_2PI = float(np.log(2.0 * np.pi))


def _mixture_terms(x, a, s, weights, means, variances):
    """Plain numpy: the (..., K) terms log w_k + log N(x; a mu_k, v_k I) of
    each row of x, with v_k = a^2 s_k^2 + s^2; also returns the (..., K, d)
    offsets x - a mu_k, their (..., K) squared norms q and the (K,) v."""
    d = means.shape[1]
    v = a * a * variances + s * s
    diff = x[..., None, :] - a * means
    q = np.vecdot(diff, diff)
    logn = -0.5 * d * (np.log(v) + _LOG_2PI) - q / (2.0 * v)
    return np.log(weights) + logn, diff, q, v


def gm_epsilon(x, t, sched, weights, means, variances, tangents=None):
    """Exact epsilon for Gaussian-mixture data.

    The value is computed in plain numpy.  When x or t is taped, it is
    recorded as one op over (x, alpha_t, sigma_t) whose VJP is the closed
    form of eps = sigma sum_k (gamma_k / v_k) (x - alpha mu_k), gamma the
    softmax of the mixture's log terms.

    Given tangents V, rows (..., n, d) at a cold x, it returns (eps, J V)
    with J v = sigma [(sum_k gamma_k / v_k) v - sum_k gamma_k (w_k . v) w_k]
    for each row v: u_k = (x - alpha mu_k) / v_k, m = sum_k gamma_k u_k and
    w_k = u_k - m, so the sum is the covariance of u under gamma.
    """
    sched.check_domain(t)
    a, s = sched.alpha_sigma(t)
    xd, ad, sd = en.data_of(x), en.data_of(a), en.data_of(s)
    terms, diff, q, v = _mixture_terms(xd, ad, sd, weights, means, variances)
    gamma = np.exp(terms - en.logsumexp(terms)[..., None])
    r = gamma / v
    acc = np.sum(r[..., None] * diff, axis=-2)
    if tangents is not None:
        w = diff / v[:, None] - acc[..., None, :]
        g = gamma[..., None, :] * np.vecdot(tangents[..., None, :],
                                            w[..., None, :, :])
        wt = np.swapaxes(w, -1, -2)[..., None, :, :]
        jv = (r.sum(axis=-1)[..., None, None] * tangents
              - np.vecdot(g[..., None, :], wt))
        return sd * acc, sd * jv
    live_a, live_s = type(a) is en.Value, type(s) is en.Value
    if not (live_a or live_s or type(x) is en.Value):
        return sd * acc

    def vjp(adj):
        g = sd * adj
        g_r = np.vecdot(g[..., None, :], diff)
        g_gamma = g_r / v
        # softmax, then the log terms' -q/(2v) through q = |diff|^2
        c = gamma * (g_gamma - np.vecdot(gamma, g_gamma)[..., None]) / v
        g_diff = r[..., None] * g[..., None, :] - c[..., None] * diff
        g_x = np.sum(g_diff, axis=-2)
        if not (live_a or live_s):
            return g_x, None, None
        lead = tuple(range(g_r.ndim - 1))
        # v_k = a^2 s_k^2 + s^2 through r_k = gamma_k / v_k and the log terms
        g_v = np.sum(c * (0.5 * q / v - 0.5 * means.shape[1]) - g_r * r / v,
                     axis=lead)
        g_a = 2.0 * ad * np.dot(g_v, variances) \
            - np.sum(np.sum(g_diff, axis=lead) * means) if live_a else None
        g_s = np.sum(adj * acc) + 2.0 * sd * np.sum(g_v) if live_s else None
        return g_x, g_a, g_s

    return en.record(sd * acc, (x, a, s), vjp, "gm_epsilon")


def point_epsilon(x, t, sched, x0, tangents=None):
    """Exact epsilon when the data distribution is a point mass at x0; with
    tangents V also J V = V / sigma."""
    sched.check_domain(t)
    a, s = sched.alpha_sigma(t)
    eps = en.div(en.sub(x, a * x0), s)
    return eps if tangents is None else (eps, tangents / s)


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
        if not (np.all(weights > 0) and np.all(variances > 0)):  # NaN fails
            raise ValueError("weights and variances must be positive")
        weights = weights / weights.sum()
        return cls(sched=sched, weights=weights, means=means, variances=variances)

    @property
    def d(self):
        return self.means.shape[1]

    def epsilon(self, x, t, tangents=None):
        return gm_epsilon(x, t, self.sched, self.weights, self.means,
                          self.variances, tangents)

    def sample_data(self, count, seed):
        """Exact samples from the mixture, one substream per index."""
        cum = np.cumsum(self.weights)
        out = np.empty((count, self.d), dtype=np.float64)
        for i, g in enumerate(rngmod.substreams(seed, "gm_data", count)):
            k = int(np.searchsorted(cum, g.random()))
            k = min(k, len(cum) - 1)
            out[i] = self.means[k] + np.sqrt(self.variances[k]) * g.standard_normal(self.d)
        return out


@dataclass(frozen=True)
class PointDenoiser:
    """Point-mass data distribution at x0."""

    sched: object
    x0: np.ndarray

    @classmethod
    def create(cls, sched, x0):
        return cls(sched=sched, x0=np.asarray(x0, dtype=np.float64))

    @property
    def d(self):
        return self.x0.shape[0]

    def epsilon(self, x, t, tangents=None):
        return point_epsilon(x, t, self.sched, self.x0, tangents)

    def sample_data(self, count, seed):
        return np.tile(self.x0, (count, 1))
