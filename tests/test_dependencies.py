"""The third-party modules that `src/scenforge` imports are exactly the
distributions that `pyproject.toml` declares as runtime dependencies."""

from __future__ import annotations

import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from 3.11")

ROOT = Path(__file__).resolve().parent.parent


def _distribution(name: str) -> str:
    """A distribution name in its normalized form (PEP 503)."""
    return re.sub(r"[-_.]+", "-", name).lower()


def _third_party_imports() -> set[str]:
    """The top-level names of every absolute import in the package, the
    function-level ones included, less the standard library's."""
    names = set()
    for path in (ROOT / "src" / "scenforge").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - sys.stdlib_module_names - {"scenforge"}


def test_imports_are_the_declared_dependencies():
    imports = _third_party_imports()
    providers = importlib.metadata.packages_distributions()
    assert imports <= set(providers), "no installed distribution provides these imports"
    imported = {_distribution(dist) for name in imports for dist in providers[name]}
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {_distribution(re.match(r"[A-Za-z0-9._-]+", requirement).group())
                for requirement in pyproject["project"]["dependencies"]}
    assert imported == declared
