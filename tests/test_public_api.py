"""Every module's ``__all__`` names what the module defines: no stale
entries after a deletion, and no public function left out.  Every name in
an ``__all__`` has a caller in the package or the benchmark, unless it is
allowed below with a reason."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import swarmctrl

MODULES = [
    importlib.import_module(f"swarmctrl.{info.name}")
    for info in pkgutil.iter_modules(swarmctrl.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_matches_public_functions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
    public = {
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }
    unlisted = sorted(public - set(module.__all__))
    assert not unlisted, f"{module.__name__} defines public {unlisted} outside __all__"


ROOT = Path(__file__).resolve().parents[1]

# public names that nothing in the package or the benchmark refers to, kept on purpose
UNREFERENCED_ALLOWED = {
    "feedback_velocity": "the public feedback law; the benchmark's tracer wraps it by name (a string)",
    "breakpoint_states": "closed-form oracle that the tests compare exact CTMC steps against",
    "mass_trajectory_consistency": "hybrid mass check, kept for the planned run trace to call",
}


# the package's modules; ``__init__`` only re-exports
PACKAGE_SOURCES = sorted(
    p for p in (ROOT / "src" / "swarmctrl").glob("*.py") if p.name != "__init__.py"
)


def syntax_nodes(path: Path):
    """Every node of a source file's syntax tree."""
    return ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def referenced_names() -> set[str]:
    """Every identifier used as a Name, an Attribute or an import in the
    package's modules (``__init__`` re-exports do not count) and the
    benchmark scripts."""
    names = set()
    for path in PACKAGE_SOURCES + sorted((ROOT / "benchmarks").glob("*.py")):
        for node in syntax_nodes(path):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    # a public name that nothing in the package or the benchmark uses is dead
    # API: delete it, or give it a caller, or allow it here with a reason
    used = referenced_names()
    public = {name for m in MODULES for name in getattr(m, "__all__", ())}
    unreferenced = sorted(public - used - set(UNREFERENCED_ALLOWED))
    assert not unreferenced, f"public names without a caller: {unreferenced}"
    stale = sorted(set(UNREFERENCED_ALLOWED) - (public - used))
    assert not stale, f"allowlisted names that are gone or now have a caller: {stale}"


def dotted_name(node) -> str | None:
    """``a.b.c`` for a Name or an attribute chain on one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := dotted_name(node.value)):
        return f"{base}.{node.attr}"
    return None


def test_no_unused_imports():
    # no linter runs on the package: an import that a deletion leaves behind
    # fails here.  ``import a.b`` counts as used only where ``a.b`` is read.
    unused = []
    for path in PACKAGE_SOURCES:
        nodes = list(syntax_nodes(path))
        used = {dotted_name(node) for node in nodes}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                unused += [
                    f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name) not in used
                ]
    assert not unused, f"unused imports: {unused}"
