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


def test_only_exact_imports_fractions():
    # rationals are cleared to integers in exact.py; every other module
    # computes with integers and leaves Fractions to it
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths
        if path.name != "exact.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
    ]
    assert found == []


def test_no_library_module_imports_dataclasses():
    # records are namedtuples: a cold process spends about 7 ms importing
    # dataclasses (with inspect) and about 0.4 ms decorating each class,
    # where 14 namedtuple classes take about 1 ms in all
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    assert len(paths) > 1
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


def test_library_imports_are_used():
    # every name a module imports at top level is referenced in it; the
    # package's __init__ imports only to re-export
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_numpy_imported_inside_functions_only():
    # numpy is imported on the first elimination or residue build that
    # needs it, so a process that never meets one does not load it
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    top, inside = [], []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        nested = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"):
                (inside if id(node) in nested else top).append("%s:%d" % (path.name, node.lineno))
    assert inside  # the check sees the lazy imports
    assert top == []


def test_private_functions_are_used_by_the_library():
    # a private helper that only tests call is dead code: every private
    # top-level function and private method is referenced in the library
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    defined = [
        (name, fn)
        for name, tree in trees.items()
        for scope in [tree] + [c for c in tree.body if isinstance(c, ast.ClassDef)]
        for fn in scope.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name.startswith("_") and not fn.name.endswith("__")
    ]
    assert len(defined) > 10  # the check sees the private helpers
    assert ["%s:%d %s" % (name, fn.lineno, fn.name)
            for name, fn in defined if fn.name not in referenced] == []


def test_public_functions_are_used_outside_the_tests():
    # a public function that only tests call belongs with them: every
    # public top-level library function is referenced by library code,
    # exported by the package's __all__, or referenced by a demo or by the
    # benchmark, which builds its instances with the package's constructors
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    root = pathlib.Path(__file__).parent.parent
    users = sorted(root.glob("demos/*.py")) + sorted(root.glob("perfbench/*.py"))
    assert len(users) > 5
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths + users}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    referenced.update(fatpointlab.__all__)
    defined = [(path.name, fn) for path in paths for fn in trees[path].body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not fn.name.startswith("_")]
    assert len(defined) > 10  # the check sees the public functions
    assert ["%s:%d %s" % (name, fn.lineno, fn.name)
            for name, fn in defined if fn.name not in referenced] == []


def test_every_guard_is_documented():
    # a size guard turns an answer into exit 3; each one is named where the
    # exit codes are explained, in README.md and in the CLI's docstring
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    guards = sorted(
        target.id
        for path in paths
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_GUARD")
    )
    assert len(guards) >= 3  # the check sees the guards
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    cli_path = pathlib.Path(fatpointlab.__file__).parent / "cli.py"
    cli_doc = ast.get_docstring(ast.parse(cli_path.read_text()))
    assert [g for g in guards if g not in readme] == []
    assert [g for g in guards if g not in cli_doc] == []


def test_scheme_state_is_read_by_the_library():
    # every attribute FatPointScheme._init sets is read by library code
    # outside _init, so state that nothing reads cannot stay unnoticed
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
    (scheme,) = [c for c in trees["schemes.py"].body
                 if isinstance(c, ast.ClassDef) and c.name == "FatPointScheme"]
    (init,) = [f for f in scheme.body if isinstance(f, ast.FunctionDef) and f.name == "_init"]
    state = sorted({t.attr for node in ast.walk(init) if isinstance(node, ast.Assign)
                    for t in node.targets
                    if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                    and t.value.id == "self"})
    assert len(state) > 5  # the check sees the scheme's state
    inside = {id(node) for node in ast.walk(init)}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in inside}
    assert [name for name in state if name not in read] == []


def test_floats_only_in_the_limb_product():
    # float64 carries exact integer products below 2^53 in one place, the
    # limb product, behind its explicit bound on q: no other library code
    # names a float type, writes a float literal or multiplies by @
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    home = {"_split_limbs", "_add_product_mod"}
    found, seen = [], []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and fn.name in home
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    else "")
            if (name.startswith("float")
                    or isinstance(node, ast.Constant) and isinstance(node.value, float)
                    or isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)):
                (seen if id(node) in allowed else found).append(
                    "%s:%d" % (path.name, node.lineno))
    assert seen  # the check sees the limb product's floats
    assert found == []


def test_residue_rows_built_in_the_frame_only():
    # every rank mod q of numpy size is taken in the coordinate frame: the
    # residue builder is called by the frame's rank and the unit point's
    # echelon only, so a whole-matrix residue route cannot come back
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    home = {"_frame_rank", "_unit_echelon"}
    found, seen = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node): fn.name for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and fn.name in home
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_residue_rows" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                if id(node) in allowed:
                    seen.add(allowed[id(node)])
                else:
                    found.append("%s:%d" % (path.name, node.lineno))
    assert seen == home  # the check sees both callers
    assert found == []


def test_int64_bound_written_in_modular_only():
    # which residues int64 and float64 carry exactly is decided in one
    # place: modular.py names the bound 2^31 once, and every other module
    # reads that constant
    paths = sorted(pathlib.Path(fatpointlab.__file__).parent.rglob("*.py"))
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and isinstance(node.left, ast.Constant) and node.left.value == 2
                    and isinstance(node.right, ast.Constant) and node.right.value == 31
                    or isinstance(node, ast.Constant) and type(node.value) is int
                    and node.value in (2**31, 2**31 - 1)):
                found.append(path.name)
    assert found == ["modular.py"]


def test_exact_imports_no_numpy():
    # exact.py ranks small matrices in pure Python and leaves numpy to
    # modular.py, which it imports only on the numpy-sized route
    path = pathlib.Path(fatpointlab.__file__).parent / "exact.py"
    tree = ast.parse(path.read_text(), str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "modular" in modules  # the check sees the lazy imports
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
