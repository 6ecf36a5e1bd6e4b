"""The package's surface holds nothing without a caller: no unused import,
no re-export from the package root, no import inside a function (where it
would hide an import cycle), and no defaulted parameter that only tests
set. Read with the stdlib ast module; nothing is imported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = {path: ast.parse(path.read_text()) for path in sorted(ROOT.glob("src/repairopt/*.py"))}
# the code that calls the package: the package itself and the benchmark harness
CALLERS = list(PACKAGE.values()) + [ast.parse(path.read_text())
                                    for path in sorted(ROOT.glob("perfbench/*.py"))
                                    if not path.name.startswith("test_")]


def test_no_unused_imports():
    unused = []
    for path, module in PACKAGE.items():
        names = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {alias.name}" for node in ast.walk(module)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in names]
    assert unused == []


def test_package_root_imports_nothing():
    init = PACKAGE[ROOT / "src" / "repairopt" / "__init__.py"]
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(init))


def test_no_import_inside_a_function():
    inner = [f"{path.name}: {fn.name}" for path, module in PACKAGE.items()
             for fn in ast.walk(module) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


def test_every_default_is_set_by_a_caller():
    """A call sets a parameter by keyword, or by position: the position of
    a method's parameter is counted after self."""
    set_by = set()
    for module in CALLERS:
        for call in ast.walk(module):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "attr", getattr(call.func, "id", None))
                set_by |= {(name, kw.arg) for kw in call.keywords if kw.arg}
                set_by |= {(name, i) for i in range(len(call.args))}
    never_set = []
    for path, module in PACKAGE.items():
        for fn in ast.walk(module):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args.posonlyargs + fn.args.args
            shift = int(bool(args) and args[0].arg in ("self", "cls"))
            first = len(args) - len(fn.args.defaults)
            params = [(a.arg, i - shift) for i, a in enumerate(args) if i >= first]
            params += [(a.arg, a.arg) for a, default in
                       zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
            never_set += [f"{path.name}: {fn.name}({arg}=)" for arg, i in params
                          if (fn.name, arg) not in set_by and (fn.name, i) not in set_by]
    assert never_set == []
