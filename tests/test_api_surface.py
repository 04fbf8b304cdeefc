"""The library defines only what it runs: no name that only the tests call.

Every public top-level function and class in ``src/lacuna``, and every
public method, must pass one of three checks: some library module refers
to it by name or attribute outside its own definition (``__init__.py``,
which only re-exports, does not count); or ``README.md`` names it; or it
is on ``ALLOWED`` below with its reason.  Every private top-level function
must pass the first check.  A helper that only the tests need belongs in
``tests/conftest.py``, beside the other oracles.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lacuna"

# public names no library module calls, each with the reason it stays
ALLOWED = {
    "convolve": "bench/tracing.py wraps it for the groups.convolve layer metrics",
    "term_values": "bench/tracing.py wraps it for the chaos.term_values layer metrics",
    "lq_norm": "bench/tracing.py wraps it for the analysis.lq_norm layer metrics",
}


def _public_definitions(tree: ast.Module):
    """Every public top-level function and class, and every public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item


def _references(tree: ast.Module):
    """(name, line) of every bare name and every attribute the module reads or writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _private_functions(tree: ast.Module):
    """Every private top-level function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield node


def _library_uses(definitions):
    """(where, node, used) per node ``definitions(tree)`` yields from each library module.

    A node is used when some library module refers to it outside its own lines.
    """
    modules = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    references = {name: list(_references(tree)) for name, tree in modules.items()}
    for module, tree in modules.items():
        for node in definitions(tree):
            used = any(
                ref == node.name
                and not (other == module and node.lineno <= line <= node.end_lineno)
                for other, refs in references.items()
                for ref, line in refs
            )
            yield f"{module}:{node.lineno}", node, used


def _public_names():
    """(where, name, reached) per public definition: reached by the library or the README."""
    readme = (ROOT / "README.md").read_text()
    for where, node, used in _library_uses(_public_definitions):
        named = re.search(rf"\b{re.escape(node.name)}\b", readme) is not None
        yield where, node.name, used or named


def test_every_public_name_is_used_by_the_library_or_documented():
    unreached = [
        f"{where} {name}"
        for where, name, reached in _public_names()
        if not reached and name not in ALLOWED
    ]
    assert unreached == []


def test_every_allowed_name_is_defined_and_still_unreached():
    # an allowance outlives its reason once the library calls the name or drops it
    unreached = {name for _, name, reached in _public_names() if not reached}
    assert set(ALLOWED) <= unreached


def test_every_private_function_is_used_by_the_library():
    unused = [
        f"{where} {node.name}" for where, node, used in _library_uses(_private_functions) if not used
    ]
    assert unused == []
