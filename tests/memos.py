"""Every memo of the package, found in the modules that hold it, for the
tests that start from cleared memos."""

import importlib
import pkgutil

import coloredsym

MODULES = [
    importlib.import_module(f"coloredsym.{info.name}")
    for info in pkgutil.iter_modules(coloredsym.__path__)
]
#: Every memo, by name.
MEMOS = {name: obj for m in MODULES for name, obj in vars(m).items() if hasattr(obj, "cache_info")}


def clear_memos():
    for memo in MEMOS.values():
        memo.cache_clear()
