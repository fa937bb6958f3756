"""Source hygiene: every import in the package and the tests is used,
every public function and class is used somewhere, every defaulted
parameter but ``budget`` is passed somewhere, every dataclass field is
read somewhere, no invariant check is an ``assert`` (``python -O``
would drop it), every test helper that asserts has its asserts rewritten,
and every function the benchmark's tracer wraps still exists."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import invgpd

PACKAGE = Path(invgpd.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        node.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    # the package's __init__.py is left out: it re-exports the public API
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    found = {}
    for path in paths + sorted((ROOT / "tests").glob("*.py")):
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    assert found == {}


def references(node: ast.AST, strings: bool = False) -> set[str]:
    """Names a piece of code uses: variables and attributes, and with
    ``strings`` every string constant too (the benchmark's tracer names
    the functions it wraps as strings)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def parsed(paths) -> list[ast.AST]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def test_every_public_definition_is_used():
    # a public function or class of the package, or a public method of any
    # class in it, must be used by code other than its own definition and
    # the re-exports of __init__.py: by the package, the tests or the
    # benchmark
    modules = {
        path: ast.parse(path.read_text(encoding="utf-8")).body
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
    }
    outside = set().union(
        *(references(tree) for tree in parsed(sorted((ROOT / "tests").glob("*.py")))),
        *(references(tree, strings=True)
          for tree in parsed(sorted((ROOT / "perfbench").glob("*.py")))),
    )
    uses = {path: [references(node) for node in body] for path, body in modules.items()}
    unused = []
    for path, body in modules.items():
        used = outside.union(*(r for other, refs in uses.items() if other != path for r in refs))
        for k, node in enumerate(body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            elsewhere = used.union(*uses[path][:k], *uses[path][k + 1:])
            if not node.name.startswith("_") and node.name not in elsewhere:
                unused.append(f"{path.name}: {node.name}")
            if isinstance(node, ast.FunctionDef):
                continue
            members = [references(sub) for sub in node.body + node.decorator_list + node.bases]
            for j, sub in enumerate(node.body):
                if (isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                        and sub.name not in elsewhere.union(*members[:j], *members[j + 1:])):
                    unused.append(f"{path.name}: {node.name}.{sub.name}")
    assert unused == []


def passed_parameters(trees) -> dict[str, set]:
    """Callee name -> what its calls pass: keyword names, and the number
    of positional arguments as an int; ``"*"`` when some call unpacks
    ``*args`` or ``**kwargs``, which may pass anything."""
    passed: dict[str, set] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            got = passed.setdefault(name, set())
            got.add(len(node.args))
            got.update(kw.arg or "*" for kw in node.keywords)
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                got.add("*")
    return passed


def defaulted_parameters(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """``(name, position)`` of each parameter with a default; the position
    counts the arguments a call passes before it (None for keyword-only).
    A method's call passes its ``self`` or ``cls`` through the attribute."""
    positional = fn.args.posonlyargs + fn.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(fn.args.defaults):]
    out = [(arg.arg, positional.index(arg)) for arg in defaulted]
    return out + [(arg.arg, None) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if default is not None]


def test_every_defaulted_parameter_is_passed():
    # a defaulted parameter of a public function or method of the package
    # that no call in the package, the tests or the benchmark passes, by
    # keyword or by position, is a constant in disguise; ``budget`` is
    # exempt, since every search takes one by convention
    package = parsed(sorted(PACKAGE.glob("*.py")))
    passed = passed_parameters(
        package + parsed(sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    )
    dead = []
    for tree in package:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node, False)]
            elif isinstance(node, ast.ClassDef):
                defs = [(sub, True) for sub in node.body if isinstance(sub, ast.FunctionDef)]
            else:
                continue
            for fn, method in defs:
                if fn.name.startswith("_"):
                    continue
                got = passed.get(fn.name, set())
                if "*" in got:
                    continue
                most = max((n for n in got if isinstance(n, int)), default=0)
                dead += [f"{fn.name}({name})" for name, position in defaulted_parameters(fn, method)
                         if name != "budget" and name not in got
                         and (position is None or most <= position)]
    assert dead == []


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    # a field that nothing reads as an attribute, in the package, the tests
    # or the benchmark, is dead weight on every record built; a class that
    # reads self.__dict__ (a to_dict of every field) reads them all
    package = parsed(sorted(PACKAGE.glob("*.py")))
    others = parsed(sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    read = {node.attr for tree in package + others for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for tree in package:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or not is_dataclass(node):
                continue
            if "__dict__" in references(node):
                continue
            unread += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                       and stmt.target.id not in read]
    assert unread == []


def test_no_assert_statements():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}


def test_test_helpers_that_assert_are_rewritten():
    # a helper module under tests/ keeps its asserts under ``python -O``
    # only if conftest.py registers it with pytest.register_assert_rewrite
    conftest = ast.parse((ROOT / "tests" / "conftest.py").read_text(encoding="utf-8"))
    registered = {arg.value for node in ast.walk(conftest)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "register_assert_rewrite"
                  for arg in node.args if isinstance(arg, ast.Constant)}
    unregistered = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name.startswith("test_") or path.name == "conftest.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem not in registered and any(isinstance(node, ast.Assert)
                                               for node in ast.walk(tree)):
            unregistered.append(path.name)
    assert unregistered == []


def test_tracer_layers_name_package_functions():
    # perfbench/tracer.py wraps functions by name, so a rename in the
    # package would silently drop a layer from ``--trace 1``. The file is
    # executed from its source text, so nothing is written next to it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    assert tracer.LAYERS
    for mod_name, fn_name, _, _, tracks_budget in tracer.LAYERS:
        module = importlib.import_module(f"invgpd.{mod_name}")
        fn = getattr(module, fn_name, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, (mod_name, fn_name)
        if tracks_budget:
            assert "budget" in inspect.signature(fn).parameters, (mod_name, fn_name)


def test_only_core_names_or_indexes_pair_cells():
    # core names a pullback's cells (pair_id), indexes and decodes them;
    # every other module reads them through core.pair_cells
    names = {"pair_id", "_PairComposites"}
    attributes = names | {"obj_index", "mor_index"}
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        hits = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id in names:
                hits.add(node.id)
            elif isinstance(node, ast.alias) and node.name in names:
                hits.add(node.name)
            elif isinstance(node, ast.Attribute) and node.attr in attributes:
                hits.add(f".{node.attr}")
        if hits:
            found[path.name] = sorted(hits)
    assert found == {}
