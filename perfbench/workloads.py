"""The benchmark's three operation kinds and the checks on their outputs.

Each kind builds its inputs from the run seed through ``steplab.rng`` and
runs one operation at a time (a closed loop with one client):

* ``TrainPasses``: one CLI pass ``gen-data -> train -> sample`` through
  ``steplab.cli.main``, VE-EDM, the default 2-D Gaussian mixture, dpmpp2 at
  NFE 4.  Its metric is the time of a pass.
* ``SampleRounds``: untaped solving.  One round is one teacher dataset
  generation (VE-EDM, dpmpp2, NFE 100, logsnr) plus ``solve_batch`` on fresh
  prior draws for every heuristic grid x {euler1, dpmpp2, ipndm4} x NFE
  {4, 8, 16} under VE-EDM and VP-linear.  Its metric is denoiser
  evaluations per second, counted from the round's spec, not by the program.
* ``BoundBatches``: ``estimate_bound`` with a dpmpp2 NFE-30 teacher map and
  an NFE-4 student map.  Its metric is Monte-Carlo samples per second.

``do(i, clock)`` runs the program calls of operation ``i``, timing each piece
of at most a few hundred milliseconds with the reference ``clock``;
``check(i, outcome)`` then verifies the outputs outside the timed region
(the sample round's error against the teacher is computed there too).
Operation ``i`` always gets the same inputs for the same run seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from steplab import cli, config, discretize, evaluate, rng, training
from steplab.solvers import SolverSpec

_MASK32 = (1 << 32) - 1


@dataclass
class Outcome:
    """What one call of ``do`` produced."""

    attempted: int            # operations run (bound: Monte-Carlo samples)
    seconds: float = 0.0      # program time, checks excluded
    norm_s: float = 0.0       # the same, normalized by reference.Clock
    work: float = 0.0         # work units done (NFE, samples, passes)
    failed: int = 0
    errors: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)


def _timed(out, clock, fn, *args):
    """Run fn under the clock, adding its time to ``out``."""
    result, seconds, normalized = clock.time(fn, *args)
    out.seconds += seconds
    out.norm_s += normalized
    return result


def _digest(*blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


class TrainPasses:
    """``gen-data -> train -> sample`` through the CLI, in process."""

    name = "train"
    metric = "learn_s"
    # The paper's headline setting (VE-EDM, default GM, dpmpp2 at NFE 4,
    # NFE-100 teacher) with fewer pairs and epochs, so that a run holds
    # enough passes for a stable median.  The refresh/train split per epoch
    # scales with the pair count, so its shares match the default config.
    CONFIG = ("solver.nfe = 4\n"
              "data.count = 16\n"
              "train.epochs_phase1 = 1\n"
              "train.epochs_phase2 = 2\n"
              "sample.count = 64\n")
    BALL_SLACK = 1e-9

    def __init__(self, workdir, seed):
        self.dir = os.path.join(workdir, "train")
        self.seed = seed
        self.map_roles = {}
        self._reports = []
        self._first_digest = None
        self._orig_train = None

    def build(self):
        os.makedirs(self.dir, exist_ok=True)
        self.cfg_path = os.path.join(self.dir, "lab.cfg")
        self.data = os.path.join(self.dir, "dataset.bin")
        self.run_dir = os.path.join(self.dir, "run")
        self.samples_dir = os.path.join(self.dir, "samples")
        ckpt = os.path.join(self.run_dir, "checkpoint.json")
        with open(self.cfg_path, "w") as fh:
            fh.write(self.CONFIG + f"sample.checkpoint = {ckpt}\n")
        # The CLI rebuilds all of this inside each pass; set-up builds it
        # too, so that setup_s covers the same construction on every
        # workload, and keeps the schedule for the checks.
        cfg = config.load_config(self.cfg_path)
        self.sched = config.build_schedule(cfg)
        den = config.build_denoiser(cfg, self.sched)
        config.build_teacher(cfg, den, self.sched)
        for kind in discretize.HEURISTICS:
            discretize.heuristic_times(kind, self.sched, cfg["solver.nfe"])
        self.sample_shape = (cfg["sample.count"], cfg["data.d"])
        if self._orig_train is None:
            self._capture_reports()

    def _capture_reports(self):
        # The CLI keeps the TrainReport to itself; its abort flag and ball
        # violation are checked here, so the call site hands it over.
        orig = self._orig_train = cli.train
        reports = self._reports

        @functools.wraps(orig)
        def train(*args, **kwargs):
            report = orig(*args, **kwargs)
            reports.append(report)
            return report

        cli.train = train

    def close(self):
        if self._orig_train is not None:
            cli.train = self._orig_train
            self._orig_train = None

    def do(self, i, clock):
        seed = str(rng.derive_seed(self.seed, "train", i) & _MASK32)
        common = ["--config", self.cfg_path, "--seed", seed]
        argvs = [["gen-data", "--out", self.data] + common,
                 ["train", "--data", self.data, "--out", self.run_dir]
                 + common,
                 ["sample", "--out", self.samples_dir] + common]
        self._reports.clear()
        out = Outcome(attempted=1, work=1.0)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                for argv in argvs:
                    code = _timed(out, clock, cli.main, argv)
                    if code != 0:
                        out.errors.append(f"{argv[0]} exited {code}")
                        break
        except Exception as exc:  # an operation failing is a result
            out.errors.append(f"{type(exc).__name__}: {exc}")
        if out.errors:
            out.errors.append(sink.getvalue().strip()[-300:])
        return out

    def check(self, i, out):
        if not out.errors:
            out.errors.extend(self._check_artifacts(i))
        out.failed = int(bool(out.errors))

    def _check_artifacts(self, i):
        if len(self._reports) != 1:
            return ["train report not captured"]
        report = self._reports[0]
        if report.aborted:
            return ["training aborted"]
        errors = []
        if report.max_ball_violation > self.BALL_SLACK:
            errors.append(f"ball violation {report.max_ball_violation}")
        ckpt = os.path.join(self.run_dir, "checkpoint.json")
        with open(ckpt, "rb") as fh:
            ckpt_bytes = fh.read()
        times = np.asarray(json.loads(ckpt_bytes)["times"], dtype=np.float64)
        if not (np.all(np.diff(times) < 0.0) and times[0] == self.sched.T
                and times[-1] == self.sched.t_min):
            errors.append("learned grid not decreasing with pinned endpoints")
        disc, _ = discretize.load_checkpoint(ckpt, self.sched)
        if not np.array_equal(disc.times(), times):
            errors.append("checkpoint times differ from tau(xi)")
        samples_path = os.path.join(self.samples_dir, "samples.npy")
        samples = np.load(samples_path)
        if samples.shape != self.sample_shape or \
                not np.all(np.isfinite(samples)):
            errors.append("samples missing or not finite")
        with open(samples_path, "rb") as fh:
            digest = _digest(ckpt_bytes, fh.read())
        if i == 0:
            if self._first_digest is None:
                self._first_digest = digest
            elif digest != self._first_digest:
                errors.append("same-seed passes are not byte-identical")
        return errors

    @staticmethod
    def value(seconds, out):
        return seconds


class SampleRounds:
    """Teacher generation plus the heuristic-grid solve_batch sweep."""

    name = "sample"
    metric = "sample_nfe_per_s"
    BATCH = 8
    SOLVERS = (("euler", 1), ("dpmpp", 2), ("ipndm", 4))
    NFES = (4, 8, 16)
    SCHEDULES = {"ve_edm": {},
                 "vp_linear": {"schedule.T": 1.0, "schedule.t_min": 1e-3}}

    def __init__(self, workdir, seed):
        self.seed = seed
        self.map_roles = {}
        self._first_digest = None

    def close(self):
        pass

    def build(self):
        self.cells = []
        self.dens = {}
        for family, overrides in self.SCHEDULES.items():
            cfg = dict(config.DEFAULTS, **overrides)
            cfg["schedule.family"] = family
            sched = config.build_schedule(cfg)
            den = config.build_denoiser(cfg, sched)
            self.dens[family] = (sched, den)
            for nfe in self.NFES:
                for kind in discretize.HEURISTICS:
                    times = discretize.heuristic_times(kind, sched, nfe)
                    for solver, order in self.SOLVERS:
                        spec = SolverSpec(family=solver, order=order, nfe=nfe)
                        self.cells.append((family, kind, spec, times))
            if family == "ve_edm":
                self.teacher = config.build_teacher(cfg, den, sched)
        # one clock reading per (schedule, NFE): 12 cells, 0.1 to 0.3 s
        per_group = len(discretize.HEURISTICS) * len(self.SOLVERS)
        self.groups = [self.cells[k:k + per_group]
                       for k in range(0, len(self.cells), per_group)]

    @staticmethod
    def _is_reference(family, kind, spec):
        # dpmpp2 on the logsnr grid under the teacher's schedule: its error
        # against the teacher must fall from NFE 4 to NFE 16
        return (family == "ve_edm" and kind == "logsnr"
                and spec.family == "dpmpp" and spec.order == 2)

    def do(self, r, clock):
        seeds = {family: rng.derive_seed(self.seed, "sample", r, family)
                 for family in self.SCHEDULES}
        out = Outcome(attempted=1 + len(self.cells))
        sched, den = self.dens["ve_edm"]
        try:
            ds = _timed(out, clock, training.generate_dataset, den, sched,
                        self.teacher, self.BATCH, seeds["ve_edm"])
        except Exception as exc:  # the round cannot be checked without it
            out.errors.append(f"teacher: {type(exc).__name__}: {exc}")
            return out
        out.work += self.BATCH * self.teacher.spec.nfe
        outputs = [ds.y]
        refs = {}
        for group in self.groups:
            ys = _timed(out, clock, self._solve_group, group, seeds,
                        out.errors)
            for (family, kind, spec, times), y in zip(group, ys):
                if self._is_reference(family, kind, spec):
                    refs[spec.nfe] = len(outputs)
                outputs.append(y)
                out.work += self.BATCH * spec.nfe
        out.raw = {"outputs": outputs, "refs": refs}
        return out

    def _solve_group(self, group, seeds, errors):
        ys = []
        for family, kind, spec, times in group:
            sched, den = self.dens[family]
            try:
                x = rng.sample_prior(sched, den.d, self.BATCH, seeds[family])
                ys.append(evaluate.solve_batch(den, sched, spec, times, None,
                                               x))
            except Exception as exc:  # one failed cell, the round goes on
                errors.append(f"{family}/{kind}/{spec}: "
                              f"{type(exc).__name__}: {exc}")
                ys.append(None)
        return ys

    def check(self, r, out):
        outputs = out.raw.get("outputs")
        if outputs is None:
            out.failed = out.attempted
            return
        nonfinite = {k for k, y in enumerate(outputs)
                     if y is not None and not np.all(np.isfinite(y))}
        if nonfinite:
            out.errors.append(f"{len(nonfinite)} non-finite batches")
        bad = nonfinite | {k for k, y in enumerate(outputs) if y is None}
        refs = out.raw["refs"]
        errs = {nfe: evaluate.rmsd(outputs[k], outputs[0])
                for nfe, k in refs.items() if k not in bad}
        if not errs.get(16, np.inf) < errs.get(4, -np.inf):
            out.errors.append(f"dpmpp2/logsnr error vs teacher {errs} does "
                              f"not fall from NFE 4 to NFE 16")
            bad.add(refs[16])
        if r == 0 and not bad:
            digest = _digest(*(y.tobytes() for y in outputs))
            if self._first_digest is None:
                self._first_digest = digest
            elif digest != self._first_digest:
                out.errors.append("same-seed rounds differ")
                bad = set(range(len(outputs)))
        out.failed = len(bad)

    @staticmethod
    def value(seconds, out):
        return out.work / seconds


class BoundBatches:
    """Monte-Carlo bound estimates, a few samples per call."""

    name = "bound"
    metric = "bound_samples_per_s"
    SAMPLES = 4
    TEACHER_NFE = 30
    STUDENT_NFE = 4

    def __init__(self, workdir, seed):
        self.seed = seed
        self.map_roles = {}

    def close(self):
        pass

    def build(self):
        cfg = dict(config.DEFAULTS)
        self.sched = config.build_schedule(cfg)
        den = config.build_denoiser(cfg, self.sched)
        self.d = den.d
        self.r = cfg["bound.r"]
        maps = {}
        for role, nfe in (("teacher", self.TEACHER_NFE),
                          ("student", self.STUDENT_NFE)):
            spec = SolverSpec(family="dpmpp", order=2, nfe=nfe)
            times = discretize.heuristic_times("logsnr", self.sched, nfe)
            maps[role] = evaluate.solver_map(den, self.sched, spec, times)
        self.t_map, self.s_map = maps["teacher"], maps["student"]
        self.map_roles = {id(fn): role for role, fn in maps.items()}
        self.closed = evaluate.bound_closed_terms(self.r, self.d)

    def do(self, i, clock):
        out = Outcome(attempted=self.SAMPLES, work=float(self.SAMPLES))
        try:
            out.raw["report"] = _timed(
                out, clock, evaluate.estimate_bound, self.t_map, self.s_map,
                self.sched, self.r, self.d, self.SAMPLES,
                rng.derive_seed(self.seed, "bound", i))
        except Exception as exc:  # e.g. a singular Jacobian
            out.errors.append(f"{type(exc).__name__}: {exc}")
        return out

    def check(self, i, out):
        report = out.raw.get("report")
        if report is not None:
            if (report.term1, report.term2) != self.closed:
                out.errors.append("closed bound terms differ")
            if not (np.isfinite(report.term3) and report.term3 >= 0.0):
                out.errors.append(f"term3 = {report.term3}")
        out.failed = out.attempted if out.errors else 0

    @staticmethod
    def value(seconds, out):
        return out.work / seconds


KINDS = {cls.name: cls for cls in (TrainPasses, SampleRounds, BoundBatches)}


def per_op_values(kind, outcomes, normalized=True):
    """The kind's value for each operation that passed (for all of them when
    none did), from normalized or raw seconds."""
    ok = [o for o in outcomes if not o.failed] or outcomes
    return [kind.value(o.norm_s if normalized else o.seconds, o) for o in ok]


def median_value(kind, outcomes, normalized=True):
    return statistics.median(per_op_values(kind, outcomes, normalized))
