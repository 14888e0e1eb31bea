"""The traced benchmark run wraps steplab call sites by name; a renamed or
deleted site would only show up as `missing_sites` in a `--trace 1` run.
Install the tracer here so the tier-1 suite sees it first, and check that
its labels still tell the validation refresh's `pair_grads` calls from the
training iterations'."""

import os
import sys

from steplab import config, training
from steplab.solvers import SolverSpec

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import spans  # noqa: E402


def test_tracer_finds_every_call_site_and_restores_them():
    originals = [(owner, attr, owner.__dict__.get(attr))
                 for owner, attrs in spans._SITES for attr in attrs]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert all(owner.__dict__[attr] is not fn
                   for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_pair_grads_spans_tell_the_refresh_from_training():
    """The tracer names a `pair_grads` call a refresh by its 8th positional
    argument, the prebuilt grid: a tiny train() gives K spans per epoch
    named refresh and one per iteration named train."""
    cfg = dict(config.DEFAULTS)
    sched = config.build_schedule(cfg)
    den = config.build_denoiser(cfg, sched)
    teacher = training.Teacher.create(den, sched, nfe=20)
    ds = training.generate_dataset(den, sched, teacher, 8, 0)
    spec = SolverSpec(family="dpmpp", order=2, nfe=3)
    tc = training.TrainConfig(epochs_phase1=1, epochs_phase2=1,
                              val_refresh_steps=3, init="logsnr")
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = training.train(ds, den, sched, spec, tc)
    finally:
        tracer.uninstall()
    names = [sp[spans.NAME] for sp in tracer.spans]
    assert not report.aborted and len(report.epoch_rows) == 2
    assert names.count("training.pair_grads.refresh") == 3 * 2
    assert names.count("training.pair_grads.train") == \
        len(report.iter_rows) > 0
