import ast
import importlib
import re
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _python_blocks(markdown: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.S)


def _graphssl_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) for every graphssl import; name is None for a plain
    ``import graphssl.x``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "graphssl":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "graphssl"]
    return found


def test_readme_quick_start_runs_and_documented_imports_resolve():
    readme = (ROOT / "README.md").read_text()
    blocks = _python_blocks(readme)
    quick_start = blocks[0]
    assert "build_graph" in quick_start
    namespace = {}
    # a warning (say, a disconnected graph) fails the quick start
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(quick_start, "README quick start", "exec"), namespace)
    assert set(np.unique(namespace["classes"])) <= {-1.0, 0.0, 1.0}
    assert np.allclose(namespace["u_krige"][namespace["labels"].indices],
                       namespace["labels"].y)

    # the names the README and the demos import, read without running a demo
    sources = blocks + [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    imports = [imp for source in sources for imp in _graphssl_imports(source)]
    assert len(imports) > 10
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{module}.{name} does not resolve"
