"""The package's surface holds nothing without a caller: no unused import,
no re-export from the package root, no import inside a function (where it
would hide an import cycle), no function, class or method that only tests
call, no dataclass field that only tests read, and no defaulted
parameter that only tests set; every function a benchmark metric names
exists; no module uses another's private names; and the test oracles
import nothing from the package. Read with the stdlib ast and json
modules; nothing is imported."""

import ast
import json
from collections import Counter
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


def _reads(tree) -> Counter:
    """How often each name is read in tree, as a bare name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def _click_command(fn) -> bool:
    """Whether a decorator makes fn a click command or group, which click
    calls by the name it registers, not by fn's."""
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
               and dec.func.attr in ("command", "group") for dec in fn.decorator_list)


def test_every_function_has_a_caller():
    """Every module-level function and class of the package, and every
    method but a dunder, a property or a click command, is read by name
    outside its own body in the package or in a non-test benchmark file,
    so code that only tests call, or that a removal left behind, fails
    here."""
    reads = sum(map(_reads, CALLERS), Counter())
    dunder = lambda name: name.startswith("__") and name.endswith("__")
    defined, uncalled = 0, []
    for path, module in PACKAGE.items():
        top = [node for node in module.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        methods = [fn for cls in top if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and not dunder(fn.name)
                   and not any(getattr(dec, "id", None) == "property"
                               for dec in fn.decorator_list)]
        for member in top + methods:
            if isinstance(member, ast.FunctionDef) and _click_command(member):
                continue
            defined += 1
            if reads[member.name] - _reads(member)[member.name] <= 0:
                uncalled.append(f"{path.name}: {member.name}")
    assert defined > 50 and uncalled == []


def _dataclass(cls) -> bool:
    return any(getattr(dec, "id", None) == "dataclass"
               or getattr(getattr(dec, "func", None), "id", None) == "dataclass"
               for dec in cls.decorator_list)


def test_every_field_is_read():
    """Every field of a package dataclass is read as an attribute, by
    name, somewhere in the package or in a non-test benchmark file, so a
    record member that only tests read, or that a removal left behind,
    fails here. A read inside the field's own class counts: a property
    may be the one reader."""
    attributes = Counter(node.attr for module in CALLERS for node in ast.walk(module)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    fields = [(path.name, cls.name, node.target.id) for path, module in PACKAGE.items()
              for cls in module.body if isinstance(cls, ast.ClassDef) and _dataclass(cls)
              for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    assert len(fields) > 20
    assert [f"{path}: {cls}.{name}" for path, cls, name in fields if not attributes[name]] == []


def test_oracles_import_nothing_from_the_package():
    """tests/oracles.py shares no code with the package it checks."""
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = [alias.name if isinstance(node, ast.Import) else node.module
                for node in ast.walk(oracles) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert imported and not any(name.split(".")[0] == "repairopt" for name in imported)


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
