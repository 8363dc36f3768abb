"""Properties of the package source itself."""
import ast
from pathlib import Path

import linvar

SOURCES = sorted(Path(linvar.__file__).resolve().parent.glob("*.py"))


def test_no_assert_in_the_sources():
    """python -O strips assert statements, so no check in the package may
    be one: each must raise an error of its own."""
    assert len(SOURCES) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_import_is_used():
    """Each name a module imports appears as a name in that module; only
    the package's `__init__` imports names to export them."""
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def _package_imports(nodes):
    """The package modules that these import statements name."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out


def test_function_level_imports_break_a_cycle():
    """A function may import a package module only when that module
    imports this one at top level; any other import belongs at the top."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES}
    top = {name: _package_imports(tree.body) for name, tree in trees.items()}
    misplaced = []
    for name, tree in trees.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for module in _package_imports(ast.walk(func)):
                if name not in top[module]:
                    misplaced.append(f"{name}.{func.name} imports {module}")
    assert misplaced == []


def _names_used(tree):
    """Every name a module uses: names, attributes, imported names, and the
    dotted parts of its string constants, which name tracing targets."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _imported_modules(tree):
    """Every module and name an import statement of the tree names, split
    at the dots: relative or absolute, at top level or in a function."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.update(alias.name.split("."))
    return out


def test_the_verifier_imports_no_engine():
    """`rewriting`, which holds the verifier every certificate replays in,
    imports nothing from the engines whose answers it checks."""
    tree = ast.parse((Path(linvar.__file__).resolve().parent / "rewriting.py").read_text())
    engines = {"saturation", "derivatives", "projection", "classification"}
    assert _imported_modules(tree) & engines == set()
    assert {"terms", "theories"} <= _imported_modules(tree)


def test_model_search_imports_no_saturation():
    """A goal's reading flows one way, from `saturation` to `models`, and
    `models` reads it through `theories`: it imports nothing from
    `saturation`, so the two cannot form an import cycle."""
    tree = ast.parse((Path(linvar.__file__).resolve().parent / "models.py").read_text())
    assert "saturation" not in _imported_modules(tree)
    assert {"terms", "theories"} <= _imported_modules(tree)


def test_the_verifier_builds_no_term():
    """`verify_derivation` and `_is_instance` check a step in place: they
    call no term constructor and no function that builds a term."""
    tree = ast.parse((Path(linvar.__file__).resolve().parent / "rewriting.py").read_text())
    builders = {"Application", "apply_substitution", "replace_at", "substitute_derivation"}
    calls = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name in ("verify_derivation",
                                                               "_is_instance"):
            calls[func.name] = {getattr(node.func, "id", getattr(node.func, "attr", None))
                                for node in ast.walk(func) if isinstance(node, ast.Call)}
    assert set(calls) == {"verify_derivation", "_is_instance"}
    assert {name: names & builders for name, names in calls.items()} == {
        "verify_derivation": set(), "_is_instance": set()}
    assert "_is_instance" in calls["verify_derivation"]


def test_every_function_is_named():
    """Each function or method the package defines, dunders aside, is named
    somewhere in the sources, the tests, the scripts or the benchmark."""
    root = Path(__file__).resolve().parent.parent
    used = set()
    for sub in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((root / sub).rglob("*.py")):
            used |= _names_used(ast.parse(path.read_text(), filename=str(path)))
    unnamed = [f"{path.name}:{node.lineno}: {node.name}"
               for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))
               and node.name not in used]
    assert unnamed == []


def test_every_saturation_is_sized_by_its_question():
    """Each call to `saturate` in the package passes the width of its
    question, positionally or as `budget=`; the default context is only for
    callers of the API."""
    unsized = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "saturate" and len(node.args) < 2 \
                    and not any(k.arg == "budget" for k in node.keywords):
                unsized.append(f"{path.name}:{node.lineno}")
    assert unsized == []


def test_no_function_caches_its_results():
    """No function of the package is decorated with `functools.lru_cache` or
    `functools.cache`: such a cache is global, lives as long as the process
    and grows with every new argument.  What a computation keeps belongs to
    the object it is about, such as a theory's `compiled` memo."""
    cached = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name in ("lru_cache", "cache"):
                    cached.append(f"{path.name}:{node.lineno}: {node.name}")
    assert cached == []


def test_every_package_error_is_a_linvar_error():
    """Each class the package defines that derives from `Exception` derives
    from `LinvarError`, so the CLI, which catches that one class, turns
    every package error into exit 1 with a message, not a traceback."""
    bases = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [getattr(b, "id", getattr(b, "attr", None))
                                    for b in node.bases]

    def ancestors(name):
        out, stack = set(), [name]
        while stack:
            for base in bases.get(stack.pop(), ()):
                if base not in out:
                    out.add(base)
                    stack.append(base)
        return out

    errors = sorted(name for name in bases if "Exception" in ancestors(name))
    assert [name for name in errors
            if name != "LinvarError" and "LinvarError" not in ancestors(name)] == []
    assert len(errors) >= 16
