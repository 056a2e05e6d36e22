"""The package's public surface."""

import sembox


def test_every_exported_name_exists():
    missing = [name for name in sembox.__all__ if not hasattr(sembox, name)]
    assert missing == []
