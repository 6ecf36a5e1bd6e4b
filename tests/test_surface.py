"""The package's surface holds nothing without a caller: no unused import,
no re-export from the package root, no import inside a function (where it
would hide an import cycle), and no defaulted parameter that only tests
set; every function a benchmark metric names exists; and no module uses
another's private names. Read with the stdlib ast and json modules;
nothing is imported."""

import ast
import json
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


def test_every_parameter_is_read():
    """Every parameter of a package function or lambda, `self` and `cls`
    excepted, is read in its body, so a parameter left behind by a
    half-finished removal fails here."""
    functions, unread = 0, []
    for path, module in PACKAGE.items():
        for fn in ast.walk(module):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            functions += 1
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", "lambda")
            unread += [f"{path.name}: {name}({arg})" for arg in params
                       if arg not in read and arg not in ("self", "cls")]
    assert functions > 0 and unread == []


def test_per_layer_metrics_name_public_functions():
    """Every `<layer>.<function>.calls` or `.self_s` metric of the
    benchmark, through the tracer's ALIASES, names a module-level public
    function of that layer, so renaming a traced function fails here
    instead of reading 0 in the benchmark. gfalg.mat_solve, whose metrics
    await retirement with the next benchmark change, is the one exception."""
    exceptions = {"gfalg.mat_solve"}
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    aliases = next(ast.literal_eval(node.value) for node in tracer.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["ALIASES"])
    public = {f"{path.stem}.{node.name}" for path, module in PACKAGE.items()
              for node in module.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    named = {aliases.get(base, base) for base, _, stat in
             (name.rpartition(".") for name in metrics)
             if stat in ("calls", "self_s") and base.count(".") == 1}
    assert named - public == exceptions


def test_no_private_name_crosses_a_module():
    """No package module imports another's `_name` or reads `module._name`.
    flowgraph._integer_scale, which lpcore imports, is the one exception:
    it stays private so that the tracer, which wraps each module's public
    functions, does not time it as a call of its own."""
    exceptions = {"lpcore.py: flowgraph._integer_scale"}
    private = lambda name: name.startswith("_") and not name.endswith("__")
    crossing = []
    for path, module in PACKAGE.items():
        modules = set()   # the names this module binds to package modules
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:
                    modules |= {alias.asname or alias.name for alias in node.names}
                crossing += [f"{path.name}: {node.module}.{alias.name}"
                             for alias in node.names if private(alias.name)]
        crossing += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(module)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules and private(node.attr)]
    assert set(crossing) == exceptions
