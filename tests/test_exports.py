"""The package's public names."""
from collections import Counter

import ebiunmix


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in Counter(ebiunmix.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in ebiunmix.__all__ if not hasattr(ebiunmix, name)]
    assert missing == []
