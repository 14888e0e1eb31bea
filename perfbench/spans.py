"""Span recording for the traced benchmark run.

The tracer wraps public steplab functions at the attribute their caller
looks up (``steplab.cli.train``, ``steplab.training.pair_grads``,
``steplab.engine.Tape.backward``, ...), so no file under ``src/`` changes and
the untraced run executes the program unmodified.  Each call becomes one
span ``(name, parent, start, end, op, extra)``: ``op`` is the benchmark
operation the call ran under and ``extra`` a count taken at the boundary
(denoiser rows, taped ops walked by a reverse sweep, retained arrays per
step).  Spans stay in memory and are written out once, at the
end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from steplab import cli, config, denoisers, discretize, engine
from steplab import evaluate, rng, training

NAME, PARENT, START, END, OP, EXTRA = range(6)

# Which name each program call site resolves; one wrapper per site, so a
# call is recorded once whichever module it was imported into.
_SITES = [
    (cli, ("main", "train", "generate_dataset", "solve_batch",
           "save_dataset", "load_dataset", "write_metrics_csv",
           "save_checkpoint",
           "load_checkpoint", "heuristic_times", "load_config",
           "write_snapshot", "build_schedule", "build_denoiser",
           "build_teacher", "build_solver_spec", "build_train_config")),
    (config, ("build_schedule", "build_denoiser", "build_teacher")),
    (training, ("pair_grads", "select_init", "solve", "heuristic_times",
                "generate_dataset")),
    (evaluate, ("solve", "solve_batch", "estimate_bound",
                "log_abs_det_jacobian", "heuristic_times", "solver_map")),
    (discretize, ("heuristic_times", "load_checkpoint")),
    (rng, ("sample_prior",)),
    (engine.Tape, ("backward",)),
    (denoisers.GMDenoiser, ("epsilon",)),
]


def _rows(x):
    """Denoiser rows in one call: a (B, d) state counts B, a (d,) state 1."""
    shape = np.shape(engine.data_of(x))
    return shape[0] if len(shape) == 2 else 1


def _pair_grads_name(args, kwargs):
    frozen = args[7] if len(args) > 7 else kwargs.get("grid_only_constant")
    return ("training.pair_grads.refresh" if frozen
            else "training.pair_grads.train")


def _epsilon_name(args, kwargs):
    taped = isinstance(args[1], engine.Value)
    return "denoisers.epsilon.taped" if taped else "denoisers.epsilon.cold"


class Tracer:
    """Records spans for calls into steplab while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []      # call sites the program no longer has
        self.map_roles = {}    # id(transport map) -> "teacher" / "student"
        self._stack = []
        self._saved = []

    # ------------------------------------------------------------- spans

    def _enter(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, name, parent, start, extra):
        self._stack.pop()
        self.spans[sid] = (name, parent, start, time.perf_counter(), self.op,
                           extra)

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span named ``name`` (used for benchmark spans)."""
        sid, parent = self._enter()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(sid, name, parent, start, None)

    def _wrap(self, fn, name, extra_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid, parent = tracer._enter()
            start = time.perf_counter()
            extra = None
            try:
                out = fn(*args, **kwargs)
                if extra_of is not None:
                    extra = extra_of(args, out)
                return out
            finally:
                tracer._exit(sid, label, parent, start, extra)

        return wrapper

    # ------------------------------------------------------ installation

    def _extras(self):
        roles = self.map_roles
        return {
            "pair_grads": (_pair_grads_name,
                           lambda a, out: out.retained_per_step),
            "epsilon": (_epsilon_name, lambda a, out: _rows(a[1])),
            "backward": ("engine.backward", lambda a, out: len(a[0])),
            "log_abs_det_jacobian": (
                lambda a, k: "evaluate.log_abs_det_jacobian."
                + roles.get(id(a[0]), "other"), None),
            "solve": ("solvers.solve", None),
        }

    def install(self):
        special = self._extras()
        for owner, attrs in _SITES:
            for attr in attrs:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                layer = fn.__module__.rsplit(".", 1)[-1]
                name, extra_of = special.get(attr, (f"{layer}.{attr}", None))
                setattr(owner, attr, self._wrap(fn, name, extra_of))
                self._saved.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # ------------------------------------------------------------ output

    def write(self, path):
        """One JSON header line, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "parent", "start_s",
                                            "end_s", "op", "extra"],
                                 "clock": "time.perf_counter"}) + "\n")
            for sid, sp in enumerate(self.spans):
                fh.write(json.dumps([sid, *sp]) + "\n")


def self_times(spans):
    """Per span: its duration minus the part its child spans cover.

    Calls are synchronous on one thread, so children of one span never
    overlap and the covered part is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            covered[sp[PARENT]] += sp[END] - sp[START]
    return [sp[END] - sp[START] - covered[i] for i, sp in enumerate(spans)]


def _counted(sp, only):
    return sp[OP] is not None and (only is None or sp[OP].startswith(only))


def aggregate(spans, only=None):
    """Per span name and per layer: calls, total and self seconds, extras.

    Only spans recorded under a benchmark operation count (calls made by the
    benchmark's own checks and builds carry none), and of those only the
    operations whose id starts with ``only`` when it is given.  A span's
    layer is its name up to the first dot.
    """
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "extra": 0.0})
    by_layer = defaultdict(float)
    for sp, own in zip(spans, selfs):
        if not _counted(sp, only):
            continue
        agg = by_name[sp[NAME]]
        agg["calls"] += 1
        agg["total_s"] += sp[END] - sp[START]
        agg["self_s"] += own
        if sp[EXTRA] is not None:
            agg["extra"] += sp[EXTRA]
        by_layer[sp[NAME].split(".", 1)[0]] += own
    return dict(by_name), dict(by_layer)


def _mean_us(agg):
    return agg["total_s"] * 1e6 / agg["calls"] if agg["calls"] else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, only, ops):
    """The per-layer metrics of the operations whose id starts with ``only``.

    Totals (seconds, calls, rows, taped ops) are divided by ``ops``, the
    number of those operations, so they do not grow with the number of
    operations a run happens to fit; means per call and ratios are not.
    The exact counts of counts.py are not among them.
    """
    by_name, by_layer = aggregate(spans, only)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0.0}
    a = lambda name: by_name.get(name, empty)  # noqa: E731
    pg_t = a("training.pair_grads.train")
    pg_r = a("training.pair_grads.refresh")
    bw = a("engine.backward")
    eps_c, eps_t = a("denoisers.epsilon.cold"), a("denoisers.epsilon.taped")
    solve = a("solvers.solve")
    # train() runs solves of its own only at the end of each validation
    # refresh (the best-iterate loss); select_init's sit under its own span
    refresh_solves = sum(
        sp[END] - sp[START] for sp in spans
        if _counted(sp, only) and sp[NAME] == "solvers.solve"
        and sp[PARENT] >= 0 and spans[sp[PARENT]][NAME] == "training.train")
    refresh_s = pg_r["total_s"] + refresh_solves
    eps_calls = eps_c["calls"] + eps_t["calls"]
    eps_rows = eps_c["extra"] + eps_t["extra"]
    per_op = {
        "training.refresh_s": refresh_s,
        "training.pair_grads_calls.refresh": pg_r["calls"],
        "training.train_iter_s": (a("training.train")["total_s"]
                                  - a("training.select_init")["total_s"]
                                  - refresh_s),
        "training.pair_grads_calls.train": pg_t["calls"],
        "training.select_init_s": a("training.select_init")["total_s"],
        "training.generate_dataset_s":
            a("training.generate_dataset")["total_s"],
        "engine.backward_calls": bw["calls"],
        "engine.backward_s": bw["total_s"],
        "engine.taped_ops": bw["extra"],
        "denoisers.eps_calls": eps_calls,
        "denoisers.eps_rows": eps_rows,
        "denoisers.eps_s": eps_c["total_s"] + eps_t["total_s"],
        "solvers.solve_calls": solve["calls"],
        "solvers.self_s": solve["self_s"],
        "discretize.heuristic_times_s":
            a("discretize.heuristic_times")["total_s"],
        "rng.sample_prior_s": a("rng.sample_prior")["total_s"],
        "evaluate.solve_batch_s": a("evaluate.solve_batch")["total_s"],
        "dataio.io_s": sum(agg["total_s"] for name, agg in by_name.items()
                           if name.startswith("dataio.")),
        "cli.self_s": by_layer.get("cli", 0.0),
    }
    out = {name: total / ops for name, total in per_op.items()}
    out.update({
        "training.pair_grads_us.refresh": _mean_us(pg_r),
        "training.pair_grads_us.train": _mean_us(pg_t),
        "engine.backward_us_per_op": _ratio(bw["total_s"] * 1e6, bw["extra"]),
        "engine.retained_per_step": _ratio(pg_t["extra"] + pg_r["extra"],
                                           pg_t["calls"] + pg_r["calls"]),
        "engine.replay_share": _ratio(eps_t["extra"], eps_rows),
        "denoisers.rows_per_call": _ratio(eps_rows, eps_calls),
        "denoisers.eps_us.cold": _mean_us(eps_c),
        "denoisers.eps_us.taped": _mean_us(eps_t),
        "solvers.solve_us": _mean_us(solve),
        "evaluate.log_abs_det_us.teacher":
            _mean_us(a("evaluate.log_abs_det_jacobian.teacher")),
        "evaluate.log_abs_det_us.student":
            _mean_us(a("evaluate.log_abs_det_jacobian.student")),
    })
    return out, by_name, by_layer
