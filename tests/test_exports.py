"""The package's public names."""

import bandforge


def test_every_exported_name_resolves_once():
    names = bandforge.__all__
    assert len(set(names)) == len(names), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(bandforge, n)] == []
