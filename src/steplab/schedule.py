"""Noise schedules for probability-flow ODE sampling.

A schedule fixes the forward marginals x_t ~ N(alpha_t x_0, sigma_t^2 I) on
the time interval [t_min, T] and supplies the drift/diffusion pieces of the
probability-flow ODE

    dx/dt = f(t) x + (g^2(t) / (2 sigma_t)) eps(x, t),
    f(t) = d log alpha_t / dt,      g^2(t) = d sigma_t^2 / dt - 2 f(t) sigma_t^2.

Two families are provided:

    VP_LINEAR:  log alpha_t = -1/4 t^2 (beta1 - beta0) - 1/2 t beta0,
                sigma_t = sqrt(1 - alpha_t^2),  so f = -beta(t)/2, g^2 = beta(t).
    VE_EDM:     alpha_t = 1, sigma_t = t,       so f = 0, g^2 = 2 t.

The log-SNR lambda(t) = log(alpha_t / sigma_t) is strictly decreasing on the
domain.  Both families invert in closed form: VE by t = exp(-lambda) and
t = sigma, VP by the positive root of c2 t^2 + (beta0/2) t + log alpha_t = 0
with c2 = (beta1 - beta0)/4 (DPM-Solver, Lu et al. 2022, arXiv 2206.00927).

The value-returning methods are plain NumPy, which tapes when given an
engine Value.  On plain arrays, `marginals` gives alpha, sigma and lambda
with their t-derivatives, and `ode_slopes` those of f and g^2, for the
closed-form transposes of a grid build; `alpha_sigma_slopes` gives alpha,
sigma, alpha' and sigma' alone, for the denoiser's step constants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import engine as en

VP_LINEAR = "vp_linear"
VE_EDM = "ve_edm"
FAMILIES = (VE_EDM, VP_LINEAR)

_DOMAIN_SLACK = 1e-9


class ScheduleDomainError(ValueError):
    """Time (or inverse target) outside the schedule's domain."""


@dataclass(frozen=True)
class NoiseSchedule:
    family: str
    T: float
    t_min: float
    beta0: float = 0.1
    beta1: float = 20.0

    def __post_init__(self):
        # each message starts with the field at fault
        if self.family not in FAMILIES:
            raise ScheduleDomainError(f"family = {self.family!r} is not in {FAMILIES}")
        if not (0.0 < self.t_min < self.T):
            raise ScheduleDomainError(f"t_min = {self.t_min!r} is not in (0, T)")
        if not np.isfinite(self.T):
            raise ScheduleDomainError(f"T = {self.T!r} is not finite")
        if self.family == VE_EDM:
            # sigma_T = T; the GM table holds 2 sigma^2 (VP has sigma <= 1)
            if not np.isfinite(2.0 * self.T * self.T):
                raise ScheduleDomainError(
                    f"T = {self.T!r} makes 2 sigma_T^2 overflow")
            return
        # beta is linear in t, so its endpoints bound it on [t_min, T]
        if not (self.beta(self.t_min) > 0.0 and self._vp_log_alpha(self.t_min) < 0.0):
            raise ScheduleDomainError(f"beta0 = {self.beta0!r} makes beta or sigma "
                                      f"<= 0 at t_min")
        if not self.beta(self.T) > 0.0:
            raise ScheduleDomainError(f"beta1 = {self.beta1!r} makes beta(T) <= 0")
        if not self._vp_log_alpha(self.T) >= np.log(np.finfo(float).tiny):
            raise ScheduleDomainError(f"T = {self.T!r} makes alpha_T underflow")

    # -------------------------------------------------------------- domain

    def check_domain(self, t):
        """t, a time or a grid of times, plain or taped; refused, naming
        the first time at fault, if any lies outside [t_min, T]."""
        td = np.asarray(en.data_of(t))
        lo = self.t_min - _DOMAIN_SLACK * self.T
        hi = self.T * (1.0 + _DOMAIN_SLACK)
        # comparisons that NaN fails, where `nan < lo` would let it pass
        inside = (td >= lo) & (td <= hi)
        if not np.logical_and.reduce(inside, axis=None):
            raise ScheduleDomainError(f"t={td[~inside][0]} outside "
                                      f"[{self.t_min}, {self.T}] for "
                                      f"{self.family}")
        return t

    # ------------------------------------------------------------ marginals

    def _vp_log_alpha(self, t):
        c2 = 0.25 * (self.beta1 - self.beta0)
        return -(c2 * t * t + 0.5 * self.beta0 * t)

    @staticmethod
    def _vp_sigma_sq(la):
        """VP: sigma^2 = 1 - alpha^2 = -expm1(2 log alpha), stable near
        t_min, from log alpha la."""
        return -np.expm1(2.0 * la)

    def alpha_sigma(self, t):
        """(alpha_t, sigma_t): under VP from one log alpha, under VE alpha
        as ones shaped like t.  `sigma` and `lam` share its sigma^2."""
        if self.family == VE_EDM:
            return en.full(np.asarray(en.data_of(t)).shape, 1.0), t
        la = self._vp_log_alpha(t)
        return np.exp(la), np.sqrt(self._vp_sigma_sq(la))

    def alpha_sigma_lam(self, t):
        """`alpha_sigma` and `lam`, bit for bit, from one log alpha: what a
        grid's table reads."""
        if self.family == VE_EDM:
            return self.alpha_sigma(t) + (-np.log(t),)
        la = self._vp_log_alpha(t)
        s2 = self._vp_sigma_sq(la)
        return np.exp(la), np.sqrt(s2), la - 0.5 * np.log(s2)

    def alpha_sigma_slopes(self, t):
        """((alpha, sigma), (alpha', sigma')) at the plain times t, as
        `marginals` gives them with no lambda: the denoiser's constants."""
        a, s = self.alpha_sigma(t)
        if self.family == VE_EDM:
            return (a, s), (np.zeros(t.shape), a)
        dla = self.drift(t)
        return (a, s), (a * dla, -a * a * dla / s)

    def sigma(self, t):
        if self.family == VE_EDM:
            return t
        return np.sqrt(self._vp_sigma_sq(self._vp_log_alpha(t)))

    def lam(self, t):
        """Log-SNR lambda(t) = log(alpha_t / sigma_t), strictly decreasing."""
        if self.family == VE_EDM:
            return -np.log(t)
        la = self._vp_log_alpha(t)
        return la - 0.5 * np.log(self._vp_sigma_sq(la))

    def marginals(self, t):
        """((alpha, sigma, lambda), their t-derivatives) at the plain times
        t, from one log alpha: under VE 1, t, -log t and 0, 1, -1/t; under
        VP, with la' = d log alpha / dt = -beta(t)/2, alpha la',
        -alpha^2 la' / sigma and la' / sigma^2, for the grid's transposes."""
        if self.family == VE_EDM:
            ones = en.full(t.shape, 1.0)
            return (ones, t, -np.log(t)), (np.zeros(t.shape), ones, -1.0 / t)
        la = self._vp_log_alpha(t)
        s2 = -np.expm1(2.0 * la)
        a, s, dla = np.exp(la), np.sqrt(s2), self.drift(t)
        return (a, s, la - 0.5 * np.log(s2)), \
            (a * dla, -a * a * dla / s, dla / s2)

    # ------------------------------------------------------------------ ODE

    def beta(self, t):
        return self.beta0 + (self.beta1 - self.beta0) * t

    def drift(self, t):
        """f(t) = d log alpha / dt."""
        if self.family == VE_EDM:
            return 0.0
        return -0.5 * self.beta(t)

    def diffusion_sq(self, t):
        """g^2(t) = d sigma^2/dt - 2 f(t) sigma^2."""
        if self.family == VE_EDM:
            return 2.0 * t
        return self.beta(t)

    def ode_slopes(self):
        """(f', (g^2)'), the t-derivatives of `drift` and `diffusion_sq`,
        constant for both families."""
        if self.family == VE_EDM:
            return 0.0, 2.0
        return -0.5 * (self.beta1 - self.beta0), self.beta1 - self.beta0

    # -------------------------------------------------------------- inverses

    @cached_property
    def sigma_T(self):
        return float(self.sigma(self.T))

    def lambda_range(self):
        """(lambda(T), lambda(t_min)), the decreasing map's value range."""
        return float(self.lam(self.T)), float(self.lam(self.t_min))

    def _in_range(self, name, x, lo, hi):
        """x as a float array; refused if any entry lies outside [lo, hi]."""
        x = np.asarray(x, dtype=np.float64)
        slack = _DOMAIN_SLACK * max(1.0, abs(lo), abs(hi))
        # one comparison that NaN fails
        bad = ~((x >= lo - slack) & (x <= hi + slack))
        if np.logical_or.reduce(bad, axis=None):
            raise ScheduleDomainError(f"{name}={x[bad][0]} outside [{lo}, {hi}]")
        return x

    def _t_of_log_alpha(self, la):
        """VP: the positive root t of c2 t^2 + (beta0/2) t + la = 0, written
        without cancellation so it also holds at c2 = 0."""
        c2 = 0.25 * (self.beta1 - self.beta0)
        b = 0.5 * self.beta0
        return -2.0 * la / (b + np.sqrt(b * b - 4.0 * c2 * la))

    def t_of_lambda(self, lam_target):
        """Invert lambda(t), elementwise on floats and arrays; under VP
        through alpha^2 = sigmoid(2 lambda)."""
        lam = self._in_range("lambda", lam_target, *self.lambda_range())
        t = np.exp(-lam) if self.family == VE_EDM else \
            self._t_of_log_alpha(-0.5 * np.logaddexp(0.0, -2.0 * lam))
        return np.clip(t, self.t_min, self.T)

    def t_of_sigma(self, sigma_target):
        """Invert sigma(t), elementwise on floats and arrays."""
        s_lo = float(self.sigma(self.t_min))
        sig = self._in_range("sigma", sigma_target, s_lo, self.sigma_T)
        t = sig if self.family == VE_EDM else \
            self._t_of_log_alpha(0.5 * np.log1p(-sig * sig))
        return np.clip(t, self.t_min, self.T)

    # ------------------------------------------------------------- identity

    def schedule_hash(self):
        """Stable 64-bit fingerprint of the family and its parameters."""
        canon = f"{self.family}|{self.T!r}|{self.t_min!r}|{self.beta0!r}|{self.beta1!r}"
        digest = hashlib.blake2b(canon.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little")


def ve_edm(T=80.0, t_min=0.002):
    return NoiseSchedule(family=VE_EDM, T=float(T), t_min=float(t_min))


def vp_linear(beta0=0.1, beta1=20.0, T=1.0, t_min=1e-3):
    return NoiseSchedule(family=VP_LINEAR, T=float(T), t_min=float(t_min),
                         beta0=float(beta0), beta1=float(beta1))
