"""No module of the package imports a private name from another: a helper
that a second module needs is public where it is defined."""

import ast
import pathlib

import gainchroma

PACKAGE = pathlib.Path(gainchroma.__file__).parent


def private_imports(source: str) -> list[str]:
    """``module.name`` for every private name that a relative or
    package-absolute ``from ... import`` in the source brings in."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gainchroma")):
            source_module = "." * node.level + (node.module or "")
            found += [f"{source_module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_walk_sees_relative_and_absolute_imports():
    assert private_imports("from .counting import count_auto, _elim_order\nfrom . import _x") == [
        ".counting._elim_order",
        ".._x",
    ]
    assert private_imports("from gainchroma.polynomials import _univariate") == ["gainchroma.polynomials._univariate"]
    assert private_imports("from os import _exit\nimport gainchroma._private") == []


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"cli.py", "counting.py", "harness.py", "polynomials.py"} <= {path.name for path in modules}
    found = {path.name: private_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}
