"""Exact work counts that must repeat bit-for-bit between runs.

* taped ops walked per ``pair_grads`` call (dpmpp2, one pair) at NFE 4, 8
  and 16, checkpointed and whole-tape;
* retained arrays per step reported by ``ChainGradResult`` for the same
  calls;
* denoiser rows per operation of each workload kind.

Run ``python3 perfbench/counts.py`` to print them as one JSON object; the
traced benchmark run reports the first two groups as per-layer metrics.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

NFES = (4, 8, 16)


def pair_grads_counts():
    """Taped ops and retained arrays per step of single pair_grads calls."""
    from steplab import config, discretize, rng, training
    from steplab.solvers import SolverSpec

    import spans

    cfg = dict(config.DEFAULTS)
    sched = config.build_schedule(cfg)
    den = config.build_denoiser(cfg, sched)
    x = rng.sample_prior(sched, den.d, 1, rng.derive_seed(0, "counts"))[0]
    y = 0.01 * x
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = "counts"
    out = {}
    try:
        for nfe in NFES:
            spec = SolverSpec(family="dpmpp", order=2, nfe=nfe)
            disc = discretize.Discretization.from_times(
                sched, discretize.heuristic_times("logsnr", sched, nfe))
            for tag, checkpointed in (("ckpt", True), ("whole", False)):
                first = len(tracer.spans)
                res = training.pair_grads(disc, den, sched, spec, x, y,
                                          checkpointed=checkpointed)
                out[f"engine.taped_ops_per_pair_grads.{tag}.nfe{nfe}"] = sum(
                    sp[spans.EXTRA] for sp in tracer.spans[first:]
                    if sp[spans.NAME] == "engine.backward")
                out[f"engine.retained_per_step.{tag}.nfe{nfe}"] = \
                    res.retained_per_step
    finally:
        tracer.uninstall()
    return out


def eps_rows_per_op(workdir, seed=0):
    """Denoiser rows of operation 0 of each workload kind, per operation."""
    import reference
    import spans
    import workloads

    out = {}
    for name, cls in workloads.KINDS.items():
        kind = cls(workdir, seed)
        kind.build()
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.op = name
            outcome = kind.do(0, reference.Clock())
        finally:
            tracer.uninstall()
            kind.close()
        kind.check(0, outcome)
        if outcome.failed:
            raise RuntimeError(f"{name} operation failed: {outcome.errors}")
        rows = sum(sp[spans.EXTRA] for sp in tracer.spans
                   if sp[spans.NAME].startswith("denoisers.epsilon."))
        out[f"denoisers.eps_rows_per_op.{name}"] = rows / outcome.attempted
    return out


def main():
    import bootstrap

    bootstrap.prepare()
    workdir = os.path.join(bootstrap.OUT, f"counts-{os.getpid()}")
    try:
        result = dict(pair_grads_counts(), **eps_rows_per_op(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
