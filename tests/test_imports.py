"""No module of the package imports a private name from another: a helper
that a second module needs is public where it is defined.  Every name the
package exports is used inside it, or is listed here with the reason it
stays, and so is every public method or property of an exported class.
Importing the package builds no command-line parser."""

import ast
import functools
import inspect
import os
import pathlib
import subprocess
import sys

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


# Exported names that no module of the package uses, and why each stays.
UNUSED_EXPORTS = {
    "components": "perfbench-pinned: the tracer hooks it and perfbench's tests call it",
    "spanning_forest": "perfbench-pinned: the tracer hooks it",
    "HolonomyCache": "perfbench-pinned: the tracer hooks its subgroup method",
    "theta": "README quickstart",
    "leading_form": "ROADMAP-kept: the README and the acceptance tests use it",
    "regular_plus_zeroes": "ROADMAP-kept: the acceptance tests use it",
}


def exported_names(source: str) -> list[str]:
    """The names that the relative ``from ... import`` lines of the source
    bring in."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]


def used_names(source: str) -> set[str]:
    """Every name the source reads; a ``def``, ``class`` or import line
    names its name without reading it."""
    return {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_the_export_walk_sees_uses_not_definitions():
    source = "from .a import f\nimport json\ndef g(y):\n    return h(y.k)\nclass C:\n    z = g\n"
    assert used_names(source) == {"h", "y", "g"}
    assert exported_names("from .a import f, g\nfrom os import path\nimport json\n") == ["f", "g"]


def test_every_export_is_used_in_the_package_or_listed():
    exported = exported_names((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert {"count_auto", "GainGraph", "theta"} <= set(exported)
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= used_names(path.read_text(encoding="utf-8"))
    # a listed name that the package comes to use leaves the list
    assert {name for name in exported if name not in used} == set(UNUSED_EXPORTS)


# Public methods and properties of exported classes that no module of the
# package reads, and why each stays.
UNUSED_MEMBERS = {
    "ClosedSetLattice.sets": "perfbench-pinned: the tracer counts the closed sets with it",
}


def read_attributes(source: str) -> set[str]:
    """Every attribute name the source reads, as in ``x.name``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def public_members(cls: type) -> list[str]:
    """The public methods and properties a class defines itself."""
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    ]


def test_the_member_walk_sees_reads_not_definitions():
    assert read_attributes("def f(x):\n    x.a = x.b(x.c.d)\n") == {"b", "c", "d"}

    class Sample:
        slot = 1

        def method(self):
            pass

        @property
        def prop(self):
            return 0

        def _private(self):
            pass

    assert public_members(Sample) == ["method", "prop"]


def test_every_member_of_an_exported_class_is_read_in_the_package_or_listed():
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            read |= read_attributes(path.read_text(encoding="utf-8"))
    exported = exported_names((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    # an export listed as unused keeps all its members
    classes = [getattr(gainchroma, name) for name in exported if name not in UNUSED_EXPORTS]
    members = {f"{cls.__name__}.{name}" for cls in classes if inspect.isclass(cls) for name in public_members(cls)}
    assert "MultiPoly.render" in members and "SpinAction.size" not in members
    # a listed member that the package comes to read leaves the list
    assert {member for member in members if member.split(".")[1] not in read} == set(UNUSED_MEMBERS)


def test_importing_the_package_builds_no_argument_parser():
    # cli.main builds its parser on its first call, so an import, and the
    # set-up of any program that imports the package, does not pay for it
    script = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(None)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import gainchroma, gainchroma.cli
print(len(built))
gainchroma.cli.build_parser()
print(len(built))
"""
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    on_import, after_build = map(int, done.stdout.split())
    assert on_import == 0
    assert after_build > 0  # the count sees a build
