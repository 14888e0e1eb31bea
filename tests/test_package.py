"""The package's public surface: every name in `steplab.__all__` resolves,
so a removed function cannot linger there."""

import steplab


def test_every_public_name_resolves():
    assert [name for name in steplab.__all__
            if not hasattr(steplab, name)] == []
    assert len(set(steplab.__all__)) == len(steplab.__all__)
