"""The traced benchmark run wraps steplab call sites by name; a renamed or
deleted site would only show up as `missing_sites` in a `--trace 1` run.
Install the tracer here so the tier-1 suite sees it first."""

import os
import sys

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
