"""Command line front end.

Seven subcommands cover the full workflow: generate a teacher dataset, train
a step grid on it, sample with a saved checkpoint, benchmark heuristics
against the learned grid, sweep the perturbation radius, estimate the
distribution-shift bound, and cross-evaluate grids across solver families.

Every command writes a config snapshot next to its outputs so a run can be
reproduced from the artifacts alone.
"""

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import rng as rngmod
from .config import (ConfigError, at_least, build_denoiser, build_schedule,
                     build_solver_spec, build_teacher, build_train_config,
                     load_config, one_of, write_snapshot)
from .dataio import (FormatError, load_dataset, save_dataset,
                     write_bench_csv, write_bound_json, write_cross_csv,
                     write_metrics_csv, write_sweep_csv)
from .discretize import (HEURISTICS, heuristic_times, load_checkpoint,
                         save_checkpoint)
from .engine import EngineError
from .evaluate import (BENCH_METHODS, JacobianError, bench_cell,
                       bench_eval_assets, cross_eval, estimate_bound,
                       solve_batch, solver_map, sweep_r)
from .schedule import ScheduleDomainError
from .solvers import DivergenceError, GridError, SolverSpec
from .training import TrainingError, generate_dataset, train

_CROSS_DEFAULT_ORDER = {"euler": 1, "dpmpp": 2, "ipndm": 4}


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _load_ds(args, cfg, sched):
    if args.data is None:
        raise ConfigError("this command requires --data")
    ds = load_dataset(args.data)
    if ds.schedule_hash != sched.schedule_hash():
        raise ConfigError(
            f"dataset {args.data} was generated under a different schedule "
            f"(hash {ds.schedule_hash:#x}, config gives "
            f"{sched.schedule_hash():#x})")
    if ds.d != cfg["data.d"]:
        raise ConfigError(f"dataset {args.data} has dimension d = {ds.d}, "
                          f"but config gives data.d = {cfg['data.d']}")
    return ds


def _cmd_gen_data(args, cfg, sched, den):
    count = at_least(cfg, "data.count", 2)
    teacher = build_teacher(cfg, den, sched)
    ds = generate_dataset(den, sched, teacher, count, cfg["seed"])
    out = args.out or "dataset.bin"
    parent = os.path.dirname(out)
    if parent:
        _ensure_dir(parent)
    save_dataset(out, ds)
    write_snapshot(cfg, out + ".config.txt")
    print(f"wrote {ds.count} pairs (d={ds.d}) to {out}")
    return 0


def _cmd_train(args, cfg, sched, den):
    ds = _load_ds(args, cfg, sched)
    spec = build_solver_spec(cfg)
    tc = build_train_config(cfg)
    report = train(ds, den, sched, spec, tc)
    out = _ensure_dir(args.out or "run")
    write_metrics_csv(os.path.join(out, "metrics.csv"), report)
    write_snapshot(cfg, os.path.join(out, "config.txt"))
    if report.best_epoch < 0:
        print(f"error: training aborted before its first checkpoint; "
              f"no checkpoint written to {out}", file=sys.stderr)
        return 1
    disc = report.best_discretization(sched, spec.nfe)
    save_checkpoint(os.path.join(out, "checkpoint.json"), disc, spec)
    status = "aborted" if report.aborted else "done"
    print(f"{status}: best val {report.best_val:.6e} at epoch "
          f"{report.best_epoch}; artifacts in {out}")
    return 0


def _load_checkpoint_grid(cfg, sched, needed_by):
    """The sample.checkpoint grid and the solver spec it was trained for."""
    if not cfg["sample.checkpoint"]:
        raise ConfigError(f"{needed_by} needs sample.checkpoint in the config")
    disc, spec = load_checkpoint(cfg["sample.checkpoint"], sched)
    for key in ("family", "order", "nfe"):
        got, want = getattr(spec, key), cfg[f"solver.{key}"]
        if got != want:
            raise ConfigError(f"checkpoint was trained for solver.{key} = "
                              f"{got!r} but config requests {want!r}")
    return disc, spec


def _cmd_sample(args, cfg, sched, den):
    count = at_least(cfg, "sample.count", 1)
    disc, spec = _load_checkpoint_grid(cfg, sched, "sample")
    x = rngmod.sample_prior(sched, den.d, count,
                            rngmod.derive_seed(cfg["seed"], "sample"))
    samples = solve_batch(den, sched, spec, disc.times(), disc.times_c(), x)
    out = _ensure_dir(args.out or "samples")
    np.save(os.path.join(out, "samples.npy"), samples)
    manifest = {
        "checkpoint": cfg["sample.checkpoint"],
        "count": count,
        "d": den.d,
        "seed": int(cfg["seed"]),
        "solver": {"family": spec.family, "order": spec.order,
                   "nfe": spec.nfe},
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_snapshot(cfg, os.path.join(out, "config.txt"))
    print(f"wrote {count} samples (d={den.d}) to {out}")
    return 0


def _cmd_bench(args, cfg, sched, den):
    eval_count = at_least(cfg, "bench.eval_count", 1)
    ref_nfe = at_least(cfg, "bench.rmsd_ref_nfe", 1)
    nfes = at_least(cfg, "bench.nfes", 1)
    methods = one_of(cfg, "bench.methods", BENCH_METHODS)
    spec, tc = build_solver_spec(cfg), build_train_config(cfg)
    ds = _load_ds(args, cfg, sched)
    teacher = build_teacher(cfg, den, sched)
    assets = bench_eval_assets(den, sched, teacher, eval_count, ref_nfe,
                               cfg["seed"])
    cells = [(ds, den, sched, spec, tc, method, int(nfe), assets, cfg["seed"])
             for nfe in nfes for method in methods]
    workers = min(args.jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(bench_cell, *cell) for cell in cells]
            rows = [f.result() for f in futs]  # submission order, not finish
    else:
        rows = [bench_cell(*cell) for cell in cells]
    out = _ensure_dir(args.out or "bench")
    write_bench_csv(os.path.join(out, "bench.csv"), rows)
    write_snapshot(cfg, os.path.join(out, "config.txt"))
    print(f"wrote {len(rows)} rows to {os.path.join(out, 'bench.csv')}")
    return 0


def _cmd_sweep_r(args, cfg, sched, den):
    r_values = [float(r) for r in at_least(cfg, "sweep.r_values", 0.0)]
    ds = _load_ds(args, cfg, sched)
    spec = build_solver_spec(cfg)
    tc = build_train_config(cfg)
    rows = sweep_r(ds, den, sched, spec, tc, r_values)
    for r, best in rows:
        if not np.isfinite(best):
            print(f"error: training at r = {r!r} aborted before its first "
                  f"checkpoint; no sweep.csv written", file=sys.stderr)
            return 1
    out = _ensure_dir(args.out or "sweep")
    write_sweep_csv(os.path.join(out, "sweep.csv"), rows)
    write_snapshot(cfg, os.path.join(out, "config.txt"))
    print(f"wrote {len(rows)} rows to {os.path.join(out, 'sweep.csv')}")
    return 0


def _cmd_bound(args, cfg, sched, den):
    n_samples = at_least(cfg, "bound.samples", 1)
    r = float(at_least(cfg, "bound.r", 0.0))
    grid = one_of(cfg, "bound.grid", HEURISTICS + ("checkpoint",))
    teacher = build_teacher(cfg, den, sched)
    spec = build_solver_spec(cfg)
    if grid == "checkpoint":
        disc, spec = _load_checkpoint_grid(cfg, sched,
                                           "bound.grid = checkpoint")
        times, times_c = disc.times(), disc.times_c()
    else:
        times = heuristic_times(grid, sched, spec.nfe)
        times_c = None
    t_map = solver_map(den, sched, teacher.spec, teacher.times)
    s_map = solver_map(den, sched, spec, times, times_c)
    report = estimate_bound(t_map, s_map, sched, r, den.d, n_samples,
                            cfg["seed"])
    out = _ensure_dir(args.out or "bound")
    write_bound_json(os.path.join(out, "bound.json"), report, cfg["seed"])
    write_snapshot(cfg, os.path.join(out, "config.txt"))
    print(f"terms {report.term1:.6e} + {report.term2:.6e} + "
          f"{report.term3:.6e} = {report.total:.6e}")
    return 0


def _cmd_cross_eval(args, cfg, sched, den):
    families = one_of(cfg, "cross.families", _CROSS_DEFAULT_ORDER)
    ds = _load_ds(args, cfg, sched)
    tc = build_train_config(cfg)
    nfe = at_least(cfg, "solver.nfe", 1)
    specs = [build_solver_spec(cfg) if family == cfg["solver.family"]
             else SolverSpec(family, _CROSS_DEFAULT_ORDER[family], nfe)
             for family in families]
    matrix = cross_eval(ds, den, sched, specs, tc)
    labels = [f"{s.family}{s.order}" for s in specs]
    out = _ensure_dir(args.out or "cross")
    write_cross_csv(os.path.join(out, "cross.csv"), matrix, labels)
    write_snapshot(cfg, os.path.join(out, "config.txt"))
    print(f"wrote {len(labels)}x{len(labels)} matrix to "
          f"{os.path.join(out, 'cross.csv')}")
    return 0


_COMMANDS = {
    "gen-data": (_cmd_gen_data, "generate a teacher dataset"),
    "train": (_cmd_train, "learn a step grid on a dataset"),
    "sample": (_cmd_sample, "sample with a saved checkpoint"),
    "bench": (_cmd_bench, "benchmark heuristic and learned grids"),
    "sweep-r": (_cmd_sweep_r, "sweep the perturbation radius"),
    "bound": (_cmd_bound, "estimate the distribution-shift bound"),
    "cross-eval": (_cmd_cross_eval, "evaluate grids across solver families"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="steplab",
        description="learn and evaluate diffusion sampler step grids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="flat key = value config file (defaults apply)")
        p.add_argument("--out", default=None, help="output file or directory")
        p.add_argument("--data", default=None, help="dataset file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for bench cells")
    return parser


# argparse parsers are not changed by parsing, so one serves every call
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        if not 0 <= cfg["seed"] < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {cfg['seed']}")
        sched = build_schedule(cfg)
        return handler(args, cfg, sched, build_denoiser(cfg, sched))
    except (ConfigError, FormatError, GridError, DivergenceError,
            JacobianError, TrainingError, ScheduleDomainError, EngineError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
