"""Module boundaries: no conedn module imports another one's private names,
no module but grid.py handles the complex side of a field, and flat.py
calls the kernel quadrature once per set of angles, not once per frequency."""

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


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _repeated_parts(tree: ast.AST):
    """The parts of every loop that run once per iteration: ``for`` and
    ``while`` bodies, and the element, filters and inner iterables of
    comprehensions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield from node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            yield from ([node.key, node.value] if isinstance(node, ast.DictComp)
                        else [node.elt])
            for i, gen in enumerate(node.generators):
                yield from gen.ifs
                if i:
                    yield gen.iter


def calls_in_loops(source: str, target: str = "quad_log_k") -> list[str]:
    """Calls inside a loop that reach ``target``, directly or through the
    module's own functions that call it, by line."""
    tree = ast.parse(source)
    funcs = [node for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    reach = {target}
    while True:
        more = {f.name for f in funcs if f.name not in reach
                and any(isinstance(c, ast.Call) and _callee(c) in reach
                        for c in ast.walk(f))}
        if not more:
            break
        reach |= more
    hits = {(c.lineno, _callee(c)) for part in _repeated_parts(tree)
            for c in ast.walk(part) if isinstance(c, ast.Call) and _callee(c) in reach}
    return [f"{line}: {name}" for line, name in sorted(hits)]


def test_loop_checker_sees_every_form():
    # the three per-frequency loops flat.py once had: a direct call, two
    # calls in one body, and a call through a helper of the module
    src = ("def table(zs):\n"
           "    for z in zs:\n"
           "        out = quad_log_k(z, th, True)\n"
           "def ext(zs):\n"
           "    for k, z in enumerate(zs):\n"
           "        a = quad_log_k(z, ths)\n"
           "        b = conical.quad_log_k(z, star)\n"
           "def _s(z):\n"
           "    return quad_log_k(abs(z), ths, want_deriv=True)\n"
           "def bounds(zs):\n"
           "    for z in zs:\n"
           "        s = _s(z)\n")
    assert calls_in_loops(src) == ["3: quad_log_k", "6: quad_log_k",
                                   "7: quad_log_k", "12: _s"]
    assert calls_in_loops("r = [quad_log_k(z, t) for z in zs]\n") == ["1: quad_log_k"]
    assert calls_in_loops("while go:\n    go = _s(z)\ndef _s(z):\n"
                          "    return quad_log_k(z, t)\n") == ["2: _s"]
    assert calls_in_loops("lk, r = quad_log_k(zs, t)\nfor row in lk:\n"
                          "    s = f(row)\nfor z in quad_log_k(zs, t)[0]:\n"
                          "    pass\n") == []


def test_flat_calls_quadrature_once_per_theta_set():
    assert calls_in_loops((SRC / "flat.py").read_text(encoding="utf-8")) == []
