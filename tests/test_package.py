"""The package's public names: ``__all__`` against the imports of ``__init__``."""

from __future__ import annotations

import ast
from pathlib import Path

import restricted_words


def test_all_names_resolve_once():
    names = restricted_words.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(restricted_words, name)] == []


def test_every_public_import_is_listed():
    tree = ast.parse(Path(restricted_words.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(restricted_words.__all__)) == []
