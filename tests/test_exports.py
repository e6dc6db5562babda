"""Every name a module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import dutysim

MODULES = ["dutysim"] + [f"dutysim.{m.name}" for m in pkgutil.iter_modules(dutysim.__path__)]


def test_all_names_resolve():
    missing = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
        missing += [f"{module_name}.{name}" for name in exported if not hasattr(module, name)]
    assert missing == []
