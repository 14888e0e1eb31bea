"""Learnable and heuristic time grids.

The learned grid of N steps is parameterized by an unconstrained vector xi
of N logits, one per interval: with e = exp(xi - max xi),

    unit(i) = sum_{n >= i} e_n / sum_n e_n,    i = 0 .. N,
    tau(i)  = unit(i) (T - t_min) + t_min,

which is strictly decreasing in i, with unit(0) = 1 and unit(N) = 0
exactly, so tau(0) = T and tau(N) = t_min for any xi.  A second vector
xi_c of N per-step offsets gives the denoiser query times
t^c_i = clamp(tau(i) + xi_c_i, t_min, T), i = 0 .. N-1.

Heuristic grids (uniform, quadratic, edm, logsnr) are produced in the same
canonical decreasing form with exact endpoints, and `init_from_times` inverts
tau so training can start from any of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import engine as en
from .solvers import ORDERS, GridError, SolverSpec

HEURISTICS = ("uniform", "quadratic", "edm", "logsnr")
_RHO_EDM = 7.0  # the EDM grid's sigma^(1/rho) spacing


def tau(xi, T, t_min):
    """The N + 1 decreasing grid times of the N logits xi; engine-generic.

    A logit spread past float resolution ties neighbouring times, which
    `solvers.checked_shared` refuses.
    """
    e = en.exp(en.sub(xi, np.maximum.reduce(en.data_of(xi), axis=None)))
    suffix = en.rcumsum(e)
    unit = en.div(suffix, en.index(suffix, 0))
    return en.add(en.mul(unit, T - t_min), t_min)


def query_times(times, xi_c, T, t_min):
    """t^c_i = clamp(t_i + xi_c_i, t_min, T) for the N steps, times =
    tau(xi); engine-generic."""
    return en.clamp(en.add(en.index(times, slice(None, -1)), xi_c), t_min, T)


def tau_transpose(xi, T, t_min, g):
    """The transpose of `tau` at the plain logits xi: the gradient of xi
    given the gradient g of the N + 1 times.  unit = S / S_0 for the
    suffix sums S of e = exp(xi - max xi), so S_i receives g_i / S_0 and
    S_0 also -(g . S) / S_0^2; e_j then receives the prefix sum of those
    up to j, and xi_j that times e_j."""
    e = np.exp(xi - np.maximum.reduce(xi, axis=None))
    suffix = en.rcumsum(e)
    g_unit = g * ((T - t_min) / suffix[0])
    g_unit[0] -= np.dot(g_unit, suffix) / suffix[0]
    return np.add.accumulate(g_unit[:-1]) * e


def query_times_transpose(times, xi_c, T, t_min, g):
    """The transpose of `query_times` at plain times and xi_c: (the
    gradient of the N + 1 times, that of xi_c) given the gradient g of the
    N query times, which passes where the clamp does not bind."""
    raw = times[:-1] + xi_c
    g = g * ((raw >= t_min) & (raw <= T))
    g_times = np.zeros(times.shape)
    g_times[:-1] = g
    return g_times, g


def init_from_times(times, T, t_min):
    """Invert tau: xi = log of the grid's interval widths, so tau(xi) =
    times to float precision and a uniform grid maps to a constant xi."""
    times = np.asarray(times, dtype=np.float64)
    if times.shape[0] < 2:
        raise GridError("grid needs at least two points")
    if not np.logical_and.reduce(times[1:] < times[:-1]):
        raise GridError("grid must be strictly decreasing")
    if abs(times[0] - T) > 1e-9 * max(1.0, T) or \
            abs(times[-1] - t_min) > 1e-9 * max(1.0, T):
        raise GridError("grid endpoints must be T and t_min")
    u = (times - t_min) / (T - t_min)
    return np.log(u[:-1] - u[1:])


@dataclass
class Discretization:
    """Grid parameters bound to a schedule; xi and xi_c have length nfe."""

    sched: object
    nfe: int
    xi: np.ndarray
    xi_c: np.ndarray

    @classmethod
    def create(cls, sched, nfe, xi=None, xi_c=None):
        if xi is None:
            xi = np.zeros(nfe, dtype=np.float64)
        xi = np.asarray(xi, dtype=np.float64).copy()
        if xi_c is None:
            xi_c = np.zeros(nfe, dtype=np.float64)
        xi_c = np.asarray(xi_c, dtype=np.float64).copy()
        if xi.shape != (nfe,) or xi_c.shape != (nfe,):
            raise GridError(f"xi and xi_c must have shape ({nfe},)")
        return cls(sched=sched, nfe=nfe, xi=xi, xi_c=xi_c)

    @classmethod
    def from_times(cls, sched, times):
        times = np.asarray(times, dtype=np.float64)
        xi = init_from_times(times, sched.T, sched.t_min)
        return cls.create(sched, times.shape[0] - 1, xi=xi)

    def times(self):
        return np.asarray(tau(self.xi, self.sched.T, self.sched.t_min))

    def times_c(self):
        return np.asarray(query_times(self.times(), self.xi_c,
                                      self.sched.T, self.sched.t_min))


def heuristic_times(kind, sched, nfe):
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
        inv = 1.0 / _RHO_EDM
        frac = np.arange(n + 1) / n
        sig = (s_max ** inv + frac * (s_min ** inv - s_max ** inv)) ** _RHO_EDM
        grid = sched.t_of_sigma(sig)
    elif kind == "logsnr":
        lam_T, lam_min = sched.lambda_range()
        lams = lam_T + (np.arange(n + 1) / n) * (lam_min - lam_T)
        grid = sched.t_of_lambda(lams)
    else:
        raise GridError(f"unknown heuristic {kind!r}")
    grid[0] = T
    grid[-1] = t_min
    if not np.logical_and.reduce(grid[1:] < grid[:-1]):
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
    """Read a grid checkpoint; returns (Discretization, SolverSpec).

    The file must be JSON, every field save_checkpoint writes must be
    present with its type, xi and xi_c must hold N entries each, the stored
    times and times_c must be exactly tau(xi) and the query times of
    (xi, xi_c), the solver family and order must be a known pair and
    solver.nfe must equal N, so a malformed, edited or stale checkpoint is
    refused, naming the field, rather than sampled.
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
    for key, size, want in (("times", "N + 1", n + 1), ("xi", "N", n),
                            ("xi_c", "N", n)):
        if len(blob[key]) != want:
            raise GridError(f"checkpoint field {key} has {len(blob[key])} "
                            f"entries, not {size} = {want}")
    if not np.all(np.diff(np.asarray(blob["times"], dtype=np.float64)) < 0.0):
        raise GridError("checkpoint times must be strictly decreasing")
    disc = Discretization.create(sched, n, xi=np.asarray(blob["xi"]),
                                 xi_c=np.asarray(blob["xi_c"]))
    for key, want in (("times", disc.times()), ("times_c", disc.times_c())):
        if not np.array_equal(np.asarray(blob[key], dtype=np.float64), want):
            raise GridError(f"checkpoint {key} do not match xi and xi_c")
    solver = blob["solver"]
    for name, allowed in (("family", ORDERS),
                          ("order", ORDERS.get(solver["family"]))):
        if solver[name] not in allowed:
            raise GridError(f"checkpoint solver.{name} = {solver[name]} "
                            f"must be one of {', '.join(map(str, allowed))}")
    if solver["nfe"] != n:
        raise GridError(f"checkpoint solver.nfe = {solver['nfe']} "
                        f"does not match N = {n}")
    return disc, SolverSpec(family=solver["family"], order=solver["order"],
                            nfe=n)
