"""Every module's ``__all__`` names what the module defines: no stale
entries after a deletion, and no public function left out."""

import importlib
import inspect
import pkgutil

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
