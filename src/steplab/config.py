"""Flat `key = value` run configuration.

Dotted keys, one per line; `#` starts a comment.  Every key has a default,
unknown or repeated keys are rejected, and values are coerced to the type of
their default (tuples are comma-separated).  `format_config` renders the
fully-defaulted table in a form that parses back to the same dict, which is
what the commands snapshot next to their outputs.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from . import denoisers, schedule as schedmod
from .discretize import HEURISTICS
from .evaluate import BENCH_METHODS
from .solvers import ORDERS, SolverSpec
from .training import Teacher, TrainConfig


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "seed": 0,
    "schedule.family": "ve_edm",
    "schedule.T": 80.0,
    "schedule.t_min": 0.002,
    "schedule.beta0": 0.1,
    "schedule.beta1": 20.0,
    "data.kind": "gm",  # gm | point
    "data.d": 2,
    "data.weights": (0.5, 0.3, 0.2),
    "data.means": (2.0, 1.0, -1.4, 1.8, 0.3, -2.2),  # row-major (K, d)
    "data.vars": (0.25, 0.16, 0.36),
    "data.count": 100,
    "solver.family": "dpmpp",  # dpmpp | euler | ipndm
    "solver.order": 2,
    "solver.nfe": 6,
    "teacher.family": "dpmpp",
    "teacher.order": 2,
    "teacher.nfe": 100,
    "teacher.grid": "logsnr",
    # every train.* default lives on TrainConfig; r_override reads train.r
    **{"train." + ("r" if f.name == "r_override" else f.name): f.default
       for f in fields(TrainConfig) if f.name != "seed"},
    "sample.count": 64,
    "sample.checkpoint": "",
    "bench.nfes": (4, 6, 8),
    "bench.methods": BENCH_METHODS,
    "bench.eval_count": 64,
    "bench.rmsd_ref_nfe": 100,
    "sweep.r_values": (0.0, 0.01, 0.1, 1.0, 5.0),
    "cross.families": ("dpmpp", "euler"),
    "bound.r": 0.19,
    "bound.samples": 100,
    "bound.grid": "logsnr",  # heuristic name or "checkpoint"
}


def _float(text):
    """float(text), refusing NaN: it compares False, so slips past checks."""
    if (value := float(text)) != value:
        raise ValueError(text)
    return value


def _coerce(key, raw, default):
    raw = raw.strip()
    try:
        if isinstance(default, tuple):
            if raw.startswith("(") and raw.endswith(")"):
                raw = raw[1:-1].strip()
            if raw == "":
                return ()
            elem = default[0]
            parts = [p.strip() for p in raw.split(",") if p.strip() != ""]
            if isinstance(elem, str):
                return tuple(parts)
            if isinstance(elem, float):
                return tuple(_float(p) for p in parts)
            return tuple(int(p) for p in parts)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return _float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config(text):
    cfg = dict(DEFAULTS)
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        cfg[key] = _coerce(key, raw, DEFAULTS[key])
    return cfg


def load_config(path):
    if path is None:
        return dict(DEFAULTS)
    with open(path) as fh:
        return parse_config(fh.read())


def _fmt_value(v):
    if isinstance(v, tuple):
        return ",".join(_fmt_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_config(cfg):
    lines = [f"{k} = {_fmt_value(cfg[k])}" for k in sorted(cfg)]
    return "\n".join(lines) + "\n"


def write_snapshot(cfg, path):
    with open(path, "w") as fh:
        fh.write(format_config(cfg))


# ------------------------------------------------------------------ builders


def build_schedule(cfg):
    fam = one_of(cfg, "schedule.family", schedmod.FAMILIES)
    try:
        if fam == schedmod.VE_EDM:
            return schedmod.ve_edm(T=cfg["schedule.T"],
                                   t_min=cfg["schedule.t_min"])
        return schedmod.vp_linear(beta0=cfg["schedule.beta0"],
                                  beta1=cfg["schedule.beta1"],
                                  T=cfg["schedule.T"],
                                  t_min=cfg["schedule.t_min"])
    except schedmod.ScheduleDomainError as exc:
        # the message starts with the schedule field at fault
        raise ConfigError(f"schedule.{exc}") from exc


def build_denoiser(cfg, sched):
    kind = one_of(cfg, "data.kind", ("gm", "point"))
    d = at_least(cfg, "data.d", 1)
    means = np.asarray(cfg["data.means"], dtype=np.float64)
    if not np.isfinite(means).all():
        raise ConfigError(f"data.means = {cfg['data.means']} must be finite")
    if kind == "point":
        if means.shape[0] < d:
            raise ConfigError(f"data.means holds {means.shape[0]} values, "
                              f"fewer than data.d = {d}")
        return denoisers.GMDenoiser.create(sched, (1.0,), means[None, :d],
                                           (0.0,))
    k = len(cfg["data.weights"])
    if means.shape[0] != k * d:
        raise ConfigError("data.means must hold K*d values")
    for key in ("data.weights", "data.vars"):
        if k < 1 or len(cfg[key]) != k or \
                not all(0 < v < np.inf for v in cfg[key]):
            raise ConfigError(f"{key} = {cfg[key]} must hold one positive "
                              f"finite value per component ({k} in "
                              f"data.weights)")
    if not sum(cfg["data.weights"]) < np.inf:  # they are divided by it
        raise ConfigError(f"data.weights = {cfg['data.weights']} sum past "
                          f"the float64 range")
    # the table holds 2 v_k = 2 (alpha^2 var_k + sigma^2), alpha <= 1
    s_T = sched.sigma_T
    if not all(2.0 * (v + s_T * s_T) < np.inf for v in cfg["data.vars"]):
        raise ConfigError(f"data.vars = {cfg['data.vars']} too large: "
                          f"2 (var + sigma_T^2) overflows float64")
    return denoisers.GMDenoiser.create(sched, cfg["data.weights"],
                                       means.reshape(k, d),
                                       cfg["data.vars"])


def _spec(cfg, part, nfe):
    """The SolverSpec of the `part.family` and `part.order` keys."""
    family = one_of(cfg, f"{part}.family", ORDERS)
    return SolverSpec(family=family,
                      order=one_of(cfg, f"{part}.order", ORDERS[family]),
                      nfe=int(nfe))


def build_solver_spec(cfg):
    return _spec(cfg, "solver", at_least(cfg, "solver.nfe", 1))


def build_teacher(cfg, den, sched):
    spec = _spec(cfg, "teacher", at_least(cfg, "teacher.nfe", 1))
    return Teacher.create(den, sched, spec.family, spec.order, spec.nfe,
                          one_of(cfg, "teacher.grid", HEURISTICS))


def at_least(cfg, key, lo):
    """cfg[key], or a ConfigError naming the key when it is below lo or not
    finite; a list must be non-empty and hold only such entries."""
    value = cfg[key]
    if not all(lo <= v < np.inf for v in (nonempty(cfg, key)
                                          if isinstance(value, tuple)
                                          else (value,))):
        raise ConfigError(f"{key} must be finite and >= {lo}, got {value}")
    return value


def one_of(cfg, key, allowed):
    """cfg[key], or a ConfigError naming the key when it is not in allowed;
    a list must be non-empty and hold only allowed entries."""
    value = cfg[key]
    if any(v not in allowed for v in (nonempty(cfg, key)
                                      if isinstance(value, tuple)
                                      else (value,))):
        raise ConfigError(f"{key} = {_fmt_value(value)} must be one of "
                          f"{', '.join(map(str, allowed))}")
    return value


def nonempty(cfg, key):
    """The list cfg[key], or a ConfigError naming the key when it is empty."""
    if not cfg[key]:
        raise ConfigError(f"{key} must not be empty")
    return cfg[key]


def build_train_config(cfg):
    at_least(cfg, "train.batch", 1)
    one_of(cfg, "train.init", ("auto",) + HEURISTICS)
    at_least(cfg, "train.val_refresh_steps", 0)
    at_least(cfg, "train.gamma", 0)
    # train.r, lr_xic and lr_xprime below 0 derive their values
    for key in ("train.r", "train.lr_xi", "train.lr_xic", "train.lr_xprime"):
        if not np.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]}")
    p1, p2 = cfg["train.epochs_phase1"], cfg["train.epochs_phase2"]
    if p1 < 0 or p2 < 0 or p1 + p2 < 1:
        raise ConfigError(f"train.epochs_phase1 = {p1} and "
                          f"train.epochs_phase2 = {p2} must be >= 0 and "
                          f"give at least one epoch")
    kw = {k[len("train."):]: v for k, v in cfg.items() if k.startswith("train.")}
    kw["r_override"] = kw.pop("r")
    return TrainConfig(seed=cfg["seed"], **kw)
