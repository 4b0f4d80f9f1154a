"""The package names the benchmark under ``bench/`` reaches, read from its
source with ``ast``: a rename or deletion here would break every bench
run, which no other test would notice."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import restricted_words
from restricted_words import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = restricted_words.__name__

# how many function names ``bench/tracing.py`` still sorts into layers
# though the package no longer defines them: the single-cell c_1 closed
# form and the single f_0 value, whose callers now read
# ``c1_explicit_table`` and ``f0_prefix``.  Those branches of its
# ``_classify`` never fire, which breaks no run; mending them is a change
# to the benchmark.  Until then this pins the count, so a further stale
# name fails here.
STALE_CLASSIFIED_FUNCTIONS = 2


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _package_aliases(tree: ast.Module) -> dict[str, str]:
    # the local name of every package module the file imports, and the
    # module it stands for: ``import restricted_words as rw`` and
    # ``from restricted_words import cli, formats``
    aliases = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == PACKAGE:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{PACKAGE}.{alias.name}"
    return aliases


def _constant(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


def _strings(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.Tuple):
        return [s for elt in node.elts for s in _strings(elt)]
    return []


def _compared(tree: ast.Module, name: str) -> set[str]:
    # every string a local variable of this name is compared with, by
    # ``==`` or ``in``
    return {
        s
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == name
        for comparator in node.comparators
        for s in _strings(comparator)
    }


def _unresolved(module_name: str, attrs: list[str]) -> list[str]:
    module = importlib.import_module(module_name)
    return [f"{module_name}.{a}" for a in attrs if not hasattr(module, a)]


def _unimportable(names: list[str]) -> list[str]:
    missing = []
    for name in names:
        try:
            importlib.import_module(f"{PACKAGE}.{name}")
        except ImportError:
            missing.append(name)
    return missing


def test_workload_attributes_resolve():
    tree = _tree("workloads.py")
    aliases = _package_aliases(tree)
    assert {"rw", "cli", "formats"} <= set(aliases)
    reached = sorted(
        {
            (aliases[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        }
    )
    assert ("restricted_words", "triangle_formula_available") in reached
    assert ("restricted_words.cli", "main") in reached
    missing = [f"{m}.{a}" for m, a in reached if _unresolved(m, [a])]
    assert missing == []


def test_traced_modules_and_functions_resolve():
    tree = _tree("tracing.py")
    assert _constant(tree, "PACKAGE") == PACKAGE
    modules = _constant(tree, "MODULES")
    missing = _unimportable(modules)
    missing += _unresolved(
        f"{PACKAGE}.sequences", list(_constant(tree, "SEQUENCE_FUNCTIONS"))
    )
    # the modules whose public functions ``_targets`` wraps, the strings
    # of its ``for name in (...)``
    (targets,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_targets"
    ]
    wrapped = [
        s
        for node in ast.walk(targets)
        if isinstance(node, ast.For)
        for s in _strings(node.iter)
    ]
    assert "words" in wrapped
    missing += _unimportable(wrapped)
    # ``package.cli.main`` and the like
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            inner = node.value
            if isinstance(inner.value, ast.Name) and inner.value.id == "package":
                missing += _unresolved(f"{PACKAGE}.{inner.attr}", [node.attr])
    # the functions it sorts into layers by name
    for qualname in _compared(tree, "qualname"):
        module, func = qualname.split(".", 1)
        missing += _unresolved(f"{PACKAGE}.{module}", [func])
    stale = sorted(
        func
        for func in _compared(tree, "func")
        if not any(
            hasattr(importlib.import_module(f"{PACKAGE}.{m}"), func) for m in modules
        )
    )
    assert missing == []
    assert len(stale) == STALE_CLASSIFIED_FUNCTIONS, stale


def test_words_jobs_still_parses(capsys):
    # cli-mix counts words with --jobs 2
    argv = ["words", "--case", "5", "--m", "3", "--len", "3", "--jobs", "2"]
    assert cli.build_parser().parse_args(argv).jobs == 2
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip().isdigit()
