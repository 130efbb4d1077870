"""Module boundaries: no conedn module imports another one's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conedn"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "conedn"


def private_imports(source: str) -> list[str]:
    """`_`-prefixed names a module takes from sibling conedn modules, by
    ``from ... import`` or by attribute access on an imported sibling."""
    tree = ast.parse(source)
    found, siblings = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module in (None, "conedn"):
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("conedn."):
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and ast.unparse(node.value) in siblings):
            found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_checker_sees_both_forms():
    assert private_imports("from .conical import _gl_rule, sinc") == ["conical._gl_rule"]
    assert private_imports("from . import flat\nflat._log_k(1.0)") == ["flat._log_k"]
    assert private_imports("import conedn.shape as sh\nsh._stokes_series") == ["sh._stokes_series"]
    assert private_imports("from . import __version__\nfrom .grid import GridFn") == []


def test_no_private_cross_module_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    offenders = {p.name: found for p in modules
                 if (found := private_imports(p.read_text(encoding="utf-8")))}
    assert offenders == {}
