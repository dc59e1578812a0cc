"""Every module under ``src/repro`` has a caller outside the test suite.

The walk follows ``import`` and ``from ... import`` edges with ``ast``,
starting from the CLI (``python -m repro`` and ``repro analyze``), the
examples, the benchmarks and perfbench. A name that a package
``__init__`` re-exports counts as a use of the submodule it comes from
only when a caller imports that name: importing ``repro.core`` does not
make every module that ``repro/core/__init__.py`` pulls in reachable.
"""

import ast
from functools import lru_cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

ENTRY_FILES = [
    SRC / "repro" / "__main__.py",
    SRC / "repro" / "cli.py",
    SRC / "repro" / "analyze" / "cli.py",
    *sorted((REPO_ROOT / "examples").glob("*.py")),
    *sorted((REPO_ROOT / "benchmarks").glob("*.py")),
    *sorted((REPO_ROOT / "perfbench").rglob("*.py")),
]

# module -> why it may stay without a caller outside the tests
ALLOWLIST = {
    "repro.ntt.variants": "test oracle for the float kernels",
}


def _module_name(path):
    """Dotted name of a file under ``src``, or None outside it."""
    try:
        parts = list(path.relative_to(SRC).with_suffix("").parts)
    except ValueError:
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _module_path(name):
    base = SRC.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _resolve_from(node, module, path):
    """Absolute module named by an ``ImportFrom`` in ``module``."""
    if not node.level:
        return node.module
    package = module.split(".")
    if path.name != "__init__.py":
        package.pop()
    package = package[:len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


@lru_cache(maxsize=None)
def _reexports(module):
    """Name a module binds with a top-level ``from ... import`` ->
    (source module, name); a package ``__init__``'s re-exports."""
    path = _module_path(module)
    bound = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            source = _resolve_from(node, module, path)
            for alias in node.names:
                bound[alias.asname or alias.name] = (source, alias.name)
    return bound


def _uses(path):
    """(module, imported name or None) pairs of the file at ``path``."""
    module = _module_name(path)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if path.name == "__init__.py" and node in tree.body:
                continue  # re-exports count only through their callers
            source = _resolve_from(node, module, path)
            uses += [(source, alias.name) for alias in node.names]
    return [(m, n) for m, n in uses if m and m.split(".")[0] == "repro"]


def _reachable():
    reached, todo = set(), []

    def reach(module):
        """Importing ``a.b.c`` runs ``a``, ``a.b`` and ``a.b.c``."""
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            name = ".".join(parts[:i])
            if name not in reached and _module_path(name):
                reached.add(name)
                todo.append(name)

    def use(module, name):
        reach(module)
        if name is None:
            return
        if _module_path(f"{module}.{name}"):
            reach(f"{module}.{name}")
        elif name in _reexports(module):
            use(*_reexports(module)[name])

    for path in ENTRY_FILES:
        if _module_name(path):
            reach(_module_name(path))
        for module, name in _uses(path):
            use(module, name)
    while todo:
        for module, name in _uses(_module_path(todo.pop())):
            use(module, name)
    return reached


def _all_modules():
    return {_module_name(path) for path in (SRC / "repro").rglob("*.py")}


def test_every_module_has_a_caller():
    unreached = _all_modules() - _reachable() - set(ALLOWLIST)
    assert not unreached, (
        "modules only the tests reach; give each a caller or delete it: "
        f"{sorted(unreached)}")


def test_allowlist_is_current():
    reached = _reachable()
    for module in ALLOWLIST:
        assert _module_path(module), f"{module} no longer exists"
        assert module not in reached, f"{module} has a caller now"

