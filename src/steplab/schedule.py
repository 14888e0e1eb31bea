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
domain and invertible; VP inversion is done by bisection.

All value-returning methods accept plain floats/arrays or engine Values, so
schedule quantities can sit inside differentiated solver graphs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

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
        if self.family not in FAMILIES:
            raise ScheduleDomainError(f"unknown schedule family {self.family!r}")
        if not (0.0 < self.t_min < self.T):
            raise ScheduleDomainError("need 0 < t_min < T")

    # -------------------------------------------------------------- domain

    def check_domain(self, t):
        td = np.asarray(en.data_of(t))
        lo = self.t_min - _DOMAIN_SLACK * self.T
        hi = self.T * (1.0 + _DOMAIN_SLACK)
        # one comparison that NaN fails, where `nan < lo` would let it pass
        if not ((td >= lo) & (td <= hi)).all():
            raise ScheduleDomainError(
                f"t={td} outside [{self.t_min}, {self.T}] for {self.family}")
        return t

    # ------------------------------------------------------------ marginals

    def _vp_log_alpha(self, t):
        c2 = 0.25 * (self.beta1 - self.beta0)
        return -(c2 * t * t + 0.5 * self.beta0 * t)

    def alpha(self, t):
        if self.family == VE_EDM:
            return 1.0
        return en.exp(self._vp_log_alpha(t))

    def sigma(self, t):
        if self.family == VE_EDM:
            return t
        # sigma^2 = 1 - alpha^2 = -expm1(2 log alpha), stable near t_min
        return en.sqrt(en.neg(en.expm1(2.0 * self._vp_log_alpha(t))))

    def alpha_sigma(self, t):
        return self.alpha(t), self.sigma(t)

    def lam(self, t):
        """Log-SNR lambda(t) = log(alpha_t / sigma_t), strictly decreasing."""
        if self.family == VE_EDM:
            return en.neg(en.log(t))
        la = self._vp_log_alpha(t)
        return la - 0.5 * en.log(en.neg(en.expm1(2.0 * la)))

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

    # -------------------------------------------------------------- inverses

    @property
    def sigma_T(self):
        return float(en.data_of(self.sigma(self.T)))

    def lambda_range(self):
        """(lambda(T), lambda(t_min)), the decreasing map's value range."""
        return (float(en.data_of(self.lam(self.T))),
                float(en.data_of(self.lam(self.t_min))))

    def t_of_lambda(self, lam_target):
        """Invert lambda(t); plain floats only (used for grid construction)."""
        lam_target = float(lam_target)
        lo, hi = self.lambda_range()
        slack = _DOMAIN_SLACK * max(1.0, abs(lo), abs(hi))
        if lam_target < lo - slack or lam_target > hi + slack:
            raise ScheduleDomainError(f"lambda={lam_target} outside [{lo}, {hi}]")
        if self.family == VE_EDM:
            t = float(np.exp(-lam_target))
            return min(max(t, self.t_min), self.T)
        return self._bisect(lambda t: float(self.lam(t)), lam_target, decreasing=True)

    def t_of_sigma(self, sigma_target):
        """Invert sigma(t); plain floats only."""
        sigma_target = float(sigma_target)
        s_lo = float(en.data_of(self.sigma(self.t_min)))
        s_hi = float(en.data_of(self.sigma(self.T)))
        slack = _DOMAIN_SLACK * max(1.0, s_hi)
        if sigma_target < s_lo - slack or sigma_target > s_hi + slack:
            raise ScheduleDomainError(f"sigma={sigma_target} outside [{s_lo}, {s_hi}]")
        if self.family == VE_EDM:
            return min(max(sigma_target, self.t_min), self.T)
        return self._bisect(lambda t: float(en.data_of(self.sigma(t))), sigma_target,
                            decreasing=False)

    def _bisect(self, fn, target, decreasing):
        # bisection to ulp convergence; monotone fn on [t_min, T]
        lo, hi = self.t_min, self.T
        f_lo = fn(lo)
        if decreasing:
            if target >= f_lo:
                return lo
            if target <= fn(hi):
                return hi
        else:
            if target <= f_lo:
                return lo
            if target >= fn(hi):
                return hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            val = fn(mid)
            above = val > target
            if above == decreasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

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
