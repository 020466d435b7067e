"""The package's exports: __all__ names exactly its public API."""

from __future__ import annotations

import types

import attrscale


def test_all_lists_exactly_the_public_names():
    assert all(hasattr(attrscale, name) for name in attrscale.__all__)
    public = {
        name
        for name, value in vars(attrscale).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(attrscale.__all__)
