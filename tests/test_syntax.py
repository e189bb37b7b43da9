"""Every Python file parses as Python 3.10, the oldest version
``pyproject.toml`` allows, even when the tests run on a newer one."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
OLDEST = (3, 10)


def _sources() -> list[pathlib.Path]:
    return sorted(path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py"))


def test_the_walk_finds_each_tree_and_the_parse_rejects_newer_syntax():
    names = {path.relative_to(ROOT).parts[0] for path in _sources()}
    assert names == {"src", "tests", "perfbench"}
    assert 'requires-python = ">=3.10.7"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)


def test_every_source_file_parses_as_python_3_10():
    failures = {}
    for path in _sources():
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
        except SyntaxError as exc:
            failures[str(path.relative_to(ROOT))] = f"line {exc.lineno}: {exc.msg}"
    assert failures == {}
