"""The package's exports: __all__ names exactly its public API; its source holds no assert."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import attrscale


def test_all_lists_exactly_the_public_names():
    assert all(hasattr(attrscale, name) for name in attrscale.__all__)
    public = {
        name
        for name, value in vars(attrscale).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(attrscale.__all__)


def test_the_package_source_has_no_assert():
    # python -O strips assert statements; a failed check must raise an AttrScaleError instead
    modules = sorted(Path(attrscale.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
