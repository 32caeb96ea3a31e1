"""Source checks on the library itself."""

import ast
import pathlib

import fatpointlab


def test_library_has_no_assert():
    # re-checks must survive `python -O`, which strips assert statements;
    # the library raises InternalError instead
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    assert len(paths) > 1
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
