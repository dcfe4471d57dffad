import types

import orbitdex


def test_all_lists_only_public_objects():
    """Every name in __all__ exists and is an object, not a submodule."""
    for name in orbitdex.__all__:
        assert not isinstance(getattr(orbitdex, name), types.ModuleType), name
