"""The package's public surface: what ``from traintrack import *`` gives."""
from __future__ import annotations

from types import ModuleType

import traintrack


def test_all_lists_exactly_the_public_names():
    # every public name the package imports is in __all__, and every entry
    # of __all__ resolves; submodules are reached as attributes, not listed
    public = {name for name, value in vars(traintrack).items()
              if not name.startswith("_")
              and not isinstance(value, ModuleType)}
    assert sorted(traintrack.__all__) == sorted(public)
    assert len(set(traintrack.__all__)) == len(traintrack.__all__)
    for name in traintrack.__all__:
        assert getattr(traintrack, name) is not None, name
