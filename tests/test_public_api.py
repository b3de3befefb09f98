"""The package's public surface: what ``import *`` binds, and that every
public name has a caller in the library itself."""

import ast
import pathlib
import types

import logtangent

SRC = pathlib.Path(logtangent.__file__).parent

# public names the library keeps although no library code calls them
CALLED_FROM_OUTSIDE = {
    # independent oracles the test suite checks the kernel against
    "spoly_reduces_to_zero": "Buchberger's criterion, the oracle for groebner_basis",
    "check_complex": "d o d = 0, the oracle for resolutions",
    "is_minimal": "no unit entries, the oracle for minimal resolutions",
    "quotient_dimension_by_counting": "monomial counting, the oracle for Hilbert series",
    # features and outside callers
    "tjurina_plane": "the plane-curve Tjurina number, a feature the README lists",
    "c3_from_curve": "c3 from the Bourbaki curve, which perfbench's check calls",
}


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from logtangent import *", namespace)
    assert [name for name, v in namespace.items() if isinstance(v, types.ModuleType)] == []
    assert set(namespace) - {"__builtins__"} == set(logtangent.__all__)
    assert callable(namespace["invariants"]) and callable(logtangent.invariants)


def _public_definitions(tree):
    """Public top-level functions and classes, and public methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield sub


def test_every_public_name_has_a_library_caller():
    """Each public definition is named (as a name or an attribute) somewhere in
    the library outside its own body; ``__init__.py``'s re-exports do not count.
    Names are matched as identifiers, so this finds names nothing mentions."""
    definitions, uses = [], {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        definitions += [(path.name, node) for node in _public_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path.name, node.lineno))

    def called(file, node):
        return any(
            not (where == file and node.lineno <= line <= node.end_lineno)
            for where, line in uses.get(node.name, ())
        )

    uncalled = sorted(node.name for file, node in definitions if not called(file, node))
    assert uncalled == sorted(CALLED_FROM_OUTSIDE)
