"""Module boundaries: no conedn module imports another one's private names,
and no module but grid.py handles the complex side of a field."""

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


# grid.py alone decides how fields are stored: everywhere else they are real
_REALNESS = {"real", "imag", "real_values"}


def realness_reads(source: str) -> list[str]:
    """Reads of ``.real``, ``.imag`` or ``.real_values`` (``np.real`` and
    ``np.imag`` among them), by line."""
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in _REALNESS]


def test_realness_checker_sees_every_form():
    src = ("a = f.real_values(tol=1e-8)\nb = f.values.real\nc = np.real(x)\n"
           "d = np.imag(x)\ne = x.imag\n")
    assert len(realness_reads(src)) == 5
    assert realness_reads("v = f.values\nw = np.abs(v)\nreal = 1\n") == []


def test_fields_are_real_outside_grid():
    offenders = {p.name: found for p in sorted(SRC.glob("*.py"))
                 if p.name != "grid.py"
                 and (found := realness_reads(p.read_text(encoding="utf-8")))}
    assert offenders == {}
