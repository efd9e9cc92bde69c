"""Persistence is free of pickle: no module under ``src/repro`` imports it.

Studies persist as rows of the SQLite result store; a pickled blob would
be a second, unversioned on-disk format (and unpickling untrusted files
runs code).
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent


def _imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_pickle():
    offenders = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if any(name.split(".")[0] in ("pickle", "_pickle")
               for name in _imports(path))
    )
    assert offenders == []
