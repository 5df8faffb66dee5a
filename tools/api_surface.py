"""Print the size of graphssl's source and of its public surface.

For each module of ``src/graphssl``: its line count, and its optional
parameters, that is the parameters with a default value, counted by
signature introspection over every function and class the module defines
(a class counts its constructor and its own methods, private ones
included).  A total line follows.

Run from the repository root:

    python3 tools/api_surface.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _optional(fn) -> int:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):  # a builtin without a signature
        return 0
    return sum(p.default is not inspect.Parameter.empty for p in params)


def optional_parameters(module) -> int:
    """Parameters with a default over the functions and classes ``module``
    defines; a class counts its constructor and its own methods."""
    count = 0
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            count += _optional(obj)
        elif inspect.isclass(obj):
            count += _optional(obj)
            for name, attr in vars(obj).items():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                if name != "__init__" and inspect.isfunction(attr):
                    count += _optional(attr)
    return count


def main() -> int:
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("graphssl")
    rows = []
    for info in pkgutil.iter_modules(package.__path__, "graphssl."):
        module = importlib.import_module(info.name)
        with open(module.__file__) as f:
            lines = sum(1 for _ in f)
        rows.append((info.name, lines, optional_parameters(module)))
    with open(package.__file__) as f:
        rows.insert(0, ("graphssl", sum(1 for _ in f), 0))
    print(f"{'module':<24}{'lines':>8}{'optional':>10}")
    for name, lines, optional in rows:
        print(f"{name:<24}{lines:>8}{optional:>10}")
    print(f"{'total':<24}{sum(r[1] for r in rows):>8}{sum(r[2] for r in rows):>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
