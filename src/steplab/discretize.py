"""Learnable and heuristic time grids.

The learned grid is parameterized by an unconstrained vector xi of length
N + 1 through a cumulative-softmax map: with s = softmax(xi),

    tau'(i) = sum_{n >= i} s_n,
    tau(i)  = (tau'(i) - tau'(N)) / (tau'(0) - tau'(N)) * (T - t_min) + t_min,

which is strictly decreasing in i with tau(0) = T and tau(N) = t_min for any
xi.  A second vector xi_c of per-index offsets gives the denoiser query times
t^c_i = clamp(tau(i) + xi_c_i, t_min, T); the solver consumes xi_c only at
indices 0 .. N-1.

Heuristic grids (uniform, quadratic, edm, logsnr) are produced in the same
canonical decreasing form with exact endpoints, and `init_from_times` inverts
tau so training can start from any of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import engine as en
from .solvers import GridError

HEURISTICS = ("uniform", "quadratic", "edm", "logsnr")


def tau(xi, T, t_min):
    """Decreasing grid from unconstrained xi; engine-generic.

    Softmax masses below float resolution relative to the largest make
    suffix sums collide; the grid then cannot stay strictly decreasing in
    float64, so that degenerate case raises instead of returning NaNs.
    """
    s = en.softmax(xi)
    suffix = en.rcumsum(s)
    top = en.index(suffix, 0)
    bottom = en.index(suffix, -1)
    span = en.sub(top, bottom)
    if en.data_of(span) <= 0.0:
        raise GridError("xi spread too large: softmax masses underflow")
    unit = en.div(en.sub(suffix, bottom), span)
    return en.add(en.mul(unit, T - t_min), t_min)


def query_times(xi, xi_c, T, t_min):
    """t^c = clamp(tau(xi) + xi_c, t_min, T); engine-generic."""
    return en.clamp(en.add(tau(xi, T, t_min), xi_c), t_min, T)


def init_from_times(times, T, t_min):
    """Invert tau: find xi with tau(xi) = times (to float precision).

    The softmax leaves one degree of freedom; the mass at index N is pinned
    to the mean interior mass, so a uniform grid maps to a constant xi.
    """
    times = np.asarray(times, dtype=np.float64)
    n = times.shape[0] - 1
    if n < 1:
        raise GridError("grid needs at least two points")
    if not np.all(np.diff(times) < 0.0):
        raise GridError("grid must be strictly decreasing")
    span = T - t_min
    if abs(times[0] - T) > 1e-9 * max(1.0, T) or \
            abs(times[-1] - t_min) > 1e-9 * max(1.0, T):
        raise GridError("grid endpoints must be T and t_min")
    u = (times - t_min) / span
    du = u[:-1] - u[1:]
    masses = np.empty(n + 1, dtype=np.float64)
    masses[:n] = du * (n / (n + 1.0))
    masses[n] = 1.0 / (n + 1.0)
    return np.log(masses)


@dataclass
class Discretization:
    """Grid parameters bound to a schedule; xi and xi_c have length nfe + 1."""

    sched: object
    nfe: int
    xi: np.ndarray
    xi_c: np.ndarray

    @classmethod
    def create(cls, sched, nfe, xi=None, xi_c=None):
        if xi is None:
            xi = np.zeros(nfe + 1, dtype=np.float64)
        xi = np.asarray(xi, dtype=np.float64).copy()
        if xi_c is None:
            xi_c = np.zeros(nfe + 1, dtype=np.float64)
        xi_c = np.asarray(xi_c, dtype=np.float64).copy()
        if xi.shape != (nfe + 1,) or xi_c.shape != (nfe + 1,):
            raise GridError(f"xi and xi_c must have shape ({nfe + 1},)")
        return cls(sched=sched, nfe=nfe, xi=xi, xi_c=xi_c)

    @classmethod
    def from_times(cls, sched, times, xi_c=None):
        times = np.asarray(times, dtype=np.float64)
        xi = init_from_times(times, sched.T, sched.t_min)
        return cls.create(sched, times.shape[0] - 1, xi=xi, xi_c=xi_c)

    def times(self):
        return np.asarray(tau(self.xi, self.sched.T, self.sched.t_min))

    def times_c(self):
        return np.asarray(query_times(self.xi, self.xi_c, self.sched.T,
                                      self.sched.t_min))


def heuristic_times(kind, sched, nfe, rho_edm=7.0):
    """Canonical decreasing grid for one of the named heuristics.

    uniform/quadratic place t(i) = (i/N)^rho (T - t_min) + t_min (rho = 1, 2)
    and reverse; edm spaces sigma^(1/rho) linearly between sigma(T) and
    sigma(t_min) with rho = 7 and maps back through the schedule; logsnr is
    uniform in lambda.  Endpoints are pinned to T and t_min exactly.
    """
    if nfe < 1:
        raise GridError("nfe must be >= 1")
    n = nfe
    T, t_min = sched.T, sched.t_min
    if kind in ("uniform", "quadratic"):
        rho = 1.0 if kind == "uniform" else 2.0
        frac = (np.arange(n + 1) / n) ** rho
        grid = (frac * (T - t_min) + t_min)[::-1].copy()
    elif kind == "edm":
        s_max = sched.sigma_T
        s_min = float(en.data_of(sched.sigma(t_min)))
        inv = 1.0 / rho_edm
        frac = np.arange(n + 1) / n
        sig = (s_max ** inv + frac * (s_min ** inv - s_max ** inv)) ** rho_edm
        grid = sched.t_of_sigma(sig)
    elif kind == "logsnr":
        lam_T, lam_min = sched.lambda_range()
        lams = lam_T + (np.arange(n + 1) / n) * (lam_min - lam_T)
        grid = sched.t_of_lambda(lams)
    else:
        raise GridError(f"unknown heuristic {kind!r}")
    grid[0] = T
    grid[-1] = t_min
    if not np.all(np.diff(grid) < 0.0):
        raise GridError(f"heuristic {kind} produced a non-decreasing grid")
    return grid


# -------------------------------------------------------------- checkpoints


_NUMBER = (int, float)
_CHECKPOINT_FIELDS = {"N": int, "T": _NUMBER, "t_min": _NUMBER, "xi": list,
                      "xi_c": list, "times": list, "times_c": list,
                      "solver.family": str, "solver.order": int,
                      "solver.nfe": int}


def _has_type(value, kind):
    """JSON type check: bools are not numbers, lists hold numbers only."""
    if kind is list:
        return isinstance(value, list) and \
            all(_has_type(v, _NUMBER) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def save_checkpoint(path, disc, solver_spec):
    blob = {
        "N": disc.nfe,
        "T": disc.sched.T,
        "t_min": disc.sched.t_min,
        "xi": [float(v) for v in disc.xi],
        "xi_c": [float(v) for v in disc.xi_c],
        "times": [float(v) for v in disc.times()],
        "times_c": [float(v) for v in disc.times_c()],
        "solver": {"family": solver_spec.family, "order": solver_spec.order,
                   "nfe": solver_spec.nfe},
    }
    with open(path, "w") as fh:
        json.dump(blob, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path, sched):
    """Read a grid checkpoint; returns (Discretization, solver dict).

    The file must be JSON, every field save_checkpoint writes must be
    present with its type, the stored times and times_c must be exactly
    tau(xi) and the query times of (xi, xi_c), and solver.nfe must equal
    N, so a malformed, edited or stale checkpoint is refused rather than
    sampled.
    """
    try:
        with open(path) as fh:
            blob = json.load(fh)
    except ValueError as exc:
        raise GridError(f"checkpoint {path} is not valid JSON: {exc}") \
            from None
    for name, kind in _CHECKPOINT_FIELDS.items():
        node = blob
        for part in name.split("."):
            if not isinstance(node, dict) or part not in node:
                raise GridError(f"checkpoint field {name} is missing")
            node = node[part]
        if not _has_type(node, kind):
            raise GridError(f"checkpoint field {name} has the wrong type "
                            f"({type(node).__name__})")
    n = blob["N"]
    if n < 1:
        raise GridError(f"checkpoint field N = {n} must be >= 1")
    if not (abs(blob["T"] - sched.T) <= 1e-12 * max(1.0, sched.T)
            and abs(blob["t_min"] - sched.t_min) <= 1e-12):
        raise GridError("checkpoint schedule window does not match config")
    times = np.asarray(blob["times"], dtype=np.float64)
    if times.shape != (n + 1,) or not np.all(np.diff(times) < 0.0):
        raise GridError("checkpoint times must be strictly decreasing")
    disc = Discretization.create(sched, n, xi=np.asarray(blob["xi"]),
                                 xi_c=np.asarray(blob["xi_c"]))
    for key, want in (("times", disc.times()), ("times_c", disc.times_c())):
        if not np.array_equal(np.asarray(blob[key], dtype=np.float64), want):
            raise GridError(f"checkpoint {key} do not match xi and xi_c")
    if blob["solver"]["nfe"] != n:
        raise GridError(f"checkpoint solver.nfe = {blob['solver']['nfe']} "
                        f"does not match N = {n}")
    return disc, blob["solver"]
