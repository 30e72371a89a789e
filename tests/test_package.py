"""The package's public surface."""

import conebessel


def test_export_list_resolves():
    names = conebessel.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(conebessel, name)]
    assert not missing, missing
