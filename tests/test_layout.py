"""Module boundaries: each conedn module imports only the sibling modules of
its layer table, no module imports another one's private names, no module
but grid.py handles the complex side of a field, no module but grid.py and
strip.py calls numpy.fft and none calls a complex transform, flat.py calls
the kernel quadrature once per set of angles, not once per frequency, no module
but conical.py sums the hypergeometric series, every name a module exports
exists, the package's lazy namespace imports no module before a name is
used and maps each name to a module that exports it, cli.py sets its BLAS
thread defaults before anything can load numpy and imports neither numpy
nor a computing module, checks.py prints nothing, conical.sinh_rule is the
one rule builder and conical._gl_rule the one caller of leggauss, the names
that only the benchmark calls appear nowhere but their pin test, and the
README shows the config defaults and pass thresholds the package has."""

import ast
import importlib
import json
import sys
from pathlib import Path

from conedn import config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "conedn"


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


# names that only the benchmark's workloads call: once the workloads call the
# primary routes, they and their pin test go, so nothing else may use them
_SHIMS = {"SurfaceTheta", "zakharov_rhs", "equilibrium_constant", "real_values"}
_SHIM_PIN = ("test_physics.py", "test_benchmark_shims_match_primary_routes")


def shim_references(source: str, skip: str | None = None) -> list[str]:
    """References to a shim, by name, attribute or import, outside the
    function named ``skip``, by line; definitions and strings do not count."""
    tree = ast.parse(source)
    skipped = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == skip
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        else:
            continue
        if id(node) not in skipped:
            found += [(node.lineno, name) for name in names if name in _SHIMS]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_shim_checker_sees_every_form():
    src = ("from conedn import SurfaceTheta\nr = physics.zakharov_rhs(s)\n"
           "c = equilibrium_constant(p)\nv = f.real_values(tol=1e-8)\n"
           "def pin():\n    physics.SurfaceTheta(p)\n")
    assert shim_references(src, skip="pin") == ["1: SurfaceTheta", "2: zakharov_rhs",
                                                "3: equilibrium_constant", "4: real_values"]
    assert shim_references(src)[-1] == "6: SurfaceTheta"
    assert shim_references("def real_values(self):\n    return 'zakharov_rhs'\n") == []


def test_shims_only_in_their_pin():
    offenders = {}
    for p in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]:
        skip = _SHIM_PIN[1] if p.name == _SHIM_PIN[0] else None
        if found := shim_references(p.read_text(encoding="utf-8"), skip):
            offenders[p.name] = found
    assert offenders == {}


# every Fourier multiplier goes through grid.multiplier_values; the strip
# solver's fused operator, which carries the transforms of its rows between
# products (strip.py's docstring), is the one exception
_FFT_MODULES = {"grid.py", "strip.py"}


def fft_uses(source: str) -> list[str]:
    """Imports of a module named ``fft`` and reads of ``np.fft`` or
    ``numpy.fft``, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any("fft" in alias.name.split(".") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = ("fft" in (node.module or "").split(".")
                   or any(alias.name == "fft" for alias in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "fft"
                   and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        if hit:
            found.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_fft_checker_sees_every_form():
    src = ("a = np.fft.rfft(x)\nb = numpy.fft.irfft(y)\nimport numpy.fft\n"
           "from numpy import fft\nfrom numpy.fft import rfft\nimport scipy.fft as sf\n")
    assert [hit.split(":")[0] for hit in fft_uses(src)] == ["1", "2", "3", "4", "5", "6"]
    assert fft_uses("v = multiplier_values(grid, f.values, symbol)\nfft = 1\n"
                    "from .grid import to_spectrum\nh = self.fft\n") == []


def test_fft_only_in_grid_and_strip():
    offenders = {p.name: found for p in sorted(SRC.glob("*.py"))
                 if p.name not in _FFT_MODULES
                 and (found := fft_uses(p.read_text(encoding="utf-8")))}
    assert offenders == {}


# one Fourier convention: src uses the real transform and the frequency
# helpers of numpy.fft, never a complex transform
_REAL_FFT = {"rfft", "irfft", "fftfreq", "rfftfreq"}


def complex_transforms(source: str) -> list[str]:
    """Names other than ``_REAL_FFT`` that a module takes from numpy.fft,
    by attribute on ``np.fft``, ``numpy.fft`` or an alias of it, or by
    ``from numpy.fft import``, by line."""
    tree = ast.parse(source)
    aliases = {"np.fft", "numpy.fft"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names
                        if alias.name == "numpy.fft" and alias.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "fft"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            found += [(node.lineno, f"numpy.fft.{alias.name}") for alias in node.names
                      if alias.name not in _REAL_FFT]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr not in _REAL_FFT
                and ast.unparse(node.value) in aliases):
            found.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_complex_transform_checker_sees_every_form():
    src = ("a = np.fft.fft(x)\nb = numpy.fft.ifft(y)\nimport numpy.fft as nf\n"
           "c = nf.fftn(x)\nfrom numpy import fft as F\nd = F.ihfft(x)\n"
           "from numpy.fft import rfft, hfft\n")
    assert complex_transforms(src) == ["1: np.fft.fft", "2: numpy.fft.ifft", "4: nf.fftn",
                                       "6: F.ihfft", "7: numpy.fft.hfft"]
    assert complex_transforms("h = np.fft.rfft(x, axis=0)\nv = np.fft.irfft(h, n=8)\n"
                              "k = np.fft.fftfreq(8)\nq = np.fft.rfftfreq(8)\n"
                              "from numpy.fft import rfft\nw = self.fft(x)\n") == []


def test_src_uses_only_the_real_transform():
    offenders = {p.name: found for p in sorted(SRC.glob("*.py"))
                 if (found := complex_transforms(p.read_text(encoding="utf-8")))}
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


# the hypergeometric series and its stop rule live in conical.py alone
_SERIES_CONSTANTS = {"SERIES_TOL", "SERIES_MAX_TERMS"}


def series_constant_names(source: str) -> list[str]:
    """The series constants a module imports or reads, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in _SERIES_CONSTANTS]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_series_constant_checker_sees_every_form():
    src = ("from .conical import SERIES_TOL, sinc\n"
           "cap = conical.SERIES_MAX_TERMS\n"
           "for n in range(SERIES_MAX_TERMS):\n"
           "    pass\n")
    assert series_constant_names(src) == ["1: SERIES_TOL", "2: SERIES_MAX_TERMS",
                                          "3: SERIES_MAX_TERMS"]
    assert series_constant_names("from .conical import legendre_dtheta\n") == []


def test_series_lives_in_conical():
    offenders = {p.name: found for p in sorted(SRC.glob("*.py"))
                 if p.name != "conical.py"
                 and (found := series_constant_names(p.read_text(encoding="utf-8")))}
    assert offenders == {}


# one rule builder: conical.sinh_rule, on the nodes of conical._gl_rule
def leggauss_uses(source: str) -> list[str]:
    """The functions that name ``leggauss``, as '<function>: <line>'
    ('<module>' at the top level), by import, name or attribute."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            names = []
        if "leggauss" in names:
            found.append(f"{owner}: {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_leggauss_checker_sees_every_form():
    src = ("from numpy.polynomial.legendre import leggauss\n"
           "def rule(n):\n"
           "    return np.polynomial.legendre.leggauss(n)\n"
           "class A:\n"
           "    def nodes(self, n):\n"
           "        return leggauss(n)\n")
    assert leggauss_uses(src) == ["<module>: 1", "rule: 3", "nodes: 6"]
    assert leggauss_uses("from numpy.polynomial.legendre import legvander\n") == []


def test_one_rule_builder():
    # only _gl_rule takes Gauss-Legendre nodes, and the one exported rule
    # builder is conical.sinh_rule
    uses = {p.name: found for p in sorted(SRC.glob("*.py"))
            if (found := leggauss_uses(p.read_text(encoding="utf-8")))}
    assert {name: [u.split(":")[0] for u in found] for name, found in uses.items()} == {
        "conical.py": ["_gl_rule", "_gl_rule"]}
    modules = ["conedn"] + [f"conedn.{p.stem}" for p in sorted(SRC.glob("*.py"))
                            if p.stem != "__init__"]
    builders = [f"{module}.{name}" for module in modules
                for name in getattr(importlib.import_module(module), "__all__", ())
                if name.endswith("_rule")]
    assert builders == ["conedn.conical.sinh_rule"]


def test_every_export_is_defined():
    names = ["conedn"] + [f"conedn.{p.stem}" for p in sorted(SRC.glob("*.py"))
                          if p.stem != "__init__"]
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                  if not hasattr(module, attr)]
    assert stale == []


def test_readme_defaults_match_config():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    after = text.split("Defaults (any subset may be overridden):", 1)[1]
    block = after.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == config._DEFAULTS


def test_readme_thresholds_match_constants():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| subcommand | constant | value | passes when |\n", 1)[1]
    lines = table.splitlines()[1:]
    rows = [line.split("|")[1:4] for line in lines[:lines.index("")]]
    for _, name, value in rows:
        module, attr = name.strip().strip("`").split(".")
        constant = getattr(importlib.import_module(f"conedn.{module}"), attr)
        assert constant == float(value), name
    assert len(rows) == 18


# the sibling modules each module may import; cli's are checked on their own,
# and __init__ may import any
_CORE = {"errors", "grid", "conical"}
_ALLOWED = {
    "errors": set(),
    "grid": {"errors"},
    "conical": {"errors"},
    "strip": _CORE,
    "flat": _CORE,
    "shape": _CORE | {"strip"},
    "physics": _CORE | {"strip"},
    "io": _CORE,
    "config": _CORE | {"strip", "physics"},
    "checks": _CORE | {"strip", "flat", "shape", "physics", "config"},
}


def sibling_imports(source: str) -> set[str]:
    """The conedn modules a module's source imports, by relative or
    absolute import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and _sibling(node):
            parts = (node.module or "").split(".")
            if parts[0] == "conedn":
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("conedn."))
    return found


def test_layer_checker_sees_every_form():
    src = ("from .grid import GridFn\nfrom . import strip\nimport conedn.shape as sh\n"
           "from conedn.physics import zakharov_terms\nfrom conedn import flat\nimport numpy\n")
    assert sibling_imports(src) == {"grid", "strip", "shape", "physics", "flat"}


def test_sibling_imports_follow_layers():
    modules = {p.stem: p for p in sorted(SRC.glob("*.py"))}
    assert set(modules) - {"cli", "__init__"} == set(_ALLOWED)
    offenders = {name: sorted(extra) for name, allowed in _ALLOWED.items()
                 if (extra := sibling_imports(modules[name].read_text(encoding="utf-8"))
                     - allowed)}
    assert offenders == {}


def _module_level(tree: ast.Module):
    """The nodes of a module that run when it is imported: everything but
    the bodies of its functions and classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _in_stdlib(module: str) -> bool:
    return module.split(".")[0] in sys.stdlib_module_names


def _stdlib(node: ast.Import | ast.ImportFrom) -> bool:
    if isinstance(node, ast.ImportFrom):
        return not _sibling(node) and _in_stdlib(node.module)
    return all(_in_stdlib(alias.name) for alias in node.names)


def eager_imports(source: str) -> list[str]:
    """Imports outside the standard library that run when a module is
    imported, not when one of its functions is called, by line."""
    found = sorted((node.lineno, ast.unparse(node)) for node in _module_level(ast.parse(source))
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and not _stdlib(node))
    return [text for _, text in found]


def test_eager_import_checker_sees_every_form():
    src = ("import importlib\nfrom .grid import GridFn\nimport numpy as np\n"
           "if x:\n    from conedn import flat\n"
           "def f():\n    from .strip import dn_general\n"
           "class C:\n    import scipy\n")
    assert eager_imports(src) == ["from .grid import GridFn", "import numpy as np",
                                  "from conedn import flat"]


def test_package_imports_only_the_standard_library_at_import():
    # no sibling module and no numpy: names load their module on first use
    assert eager_imports((SRC / "__init__.py").read_text(encoding="utf-8")) == []


def _literal(source: str, name: str):
    """The literal value assigned to ``name`` at a module's top level."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def test_lazy_table_matches_module_exports():
    table = _literal((SRC / "__init__.py").read_text(encoding="utf-8"), "_EXPORTS")
    assert table
    missing = [f"{module}.{name}" for module, names in table.items() for name in names
               if name not in (_literal((SRC / f"{module}.py").read_text(encoding="utf-8"),
                                        "__all__") or ())]
    assert missing == []


def _sets_thread_defaults(node: ast.AST) -> bool:
    return any(isinstance(c, ast.Call) and _callee(c) == "setdefault" for c in ast.walk(node))


def early_imports(source: str) -> list[str]:
    """Imports a module makes before the top-level statement that sets the
    BLAS thread defaults (the first to call ``setdefault``) and that may
    load numpy: any module outside the standard library, and any conedn
    module.  ``from . import __version__`` alone is allowed, since the
    package imports no module at import."""
    body = ast.parse(source).body
    stop = next((i for i, node in enumerate(body) if _sets_thread_defaults(node)), None)
    if stop is None:
        return ["thread defaults never set"]
    found = []
    for node in (n for stmt in body[:stop] for n in ast.walk(stmt)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if not _in_stdlib(alias.name)]
        elif isinstance(node, ast.ImportFrom) and not _stdlib(node):
            version = (node.module in (None, "conedn")
                       and [alias.name for alias in node.names] == ["__version__"])
            if not version:
                found.append("." * node.level + (node.module or ""))
    return found


def test_early_import_checker_sees_every_form():
    defaults = "if 'numpy' not in sys.modules:\n    os.environ.setdefault('V', '1')\n"
    assert early_imports("import os, sys\nfrom pathlib import Path\n"
                         "from . import __version__\n" + defaults
                         + "import numpy as np\nfrom .grid import GridFn\n") == []
    assert early_imports("import numpy as np\n" + defaults) == ["numpy"]
    assert early_imports("from numpy import fft\n" + defaults) == ["numpy"]
    assert early_imports("from .grid import GridFn\n" + defaults) == [".grid"]
    assert early_imports("from . import flat, __version__\n" + defaults) == ["."]
    assert early_imports("import conedn.flat\n" + defaults) == ["conedn.flat"]
    assert early_imports("if x:\n    import scipy.linalg\n" + defaults) == ["scipy.linalg"]
    assert early_imports("import os\nimport numpy\n") == ["thread defaults never set"]


def test_cli_sets_thread_defaults_before_numpy():
    assert early_imports((SRC / "cli.py").read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports, relative
    imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_module_checker_sees_every_form():
    src = ("import numpy as np\nfrom numpy.fft import rfft\nimport os.path\n"
           "from . import checks\nfrom .io import write_csv\n")
    assert imported_modules(src) == {"numpy", "os"}


def test_cli_computes_nothing():
    # cli parses, writes and picks the exit code; the checks module does
    # the numerics.  `from . import __version__` reads the package itself
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert "numpy" not in imported_modules(source)
    assert sibling_imports(source) - {"__version__"} == {"checks", "config", "errors", "io"}


def output_calls(source: str) -> list[str]:
    """Calls of ``print`` and writes to ``sys.stdout`` or ``sys.stderr``, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name == "print" or name.startswith(("sys.stdout", "sys.stderr")):
                found.append(f"{node.lineno}: {name}")
    return found


def test_output_checker_sees_every_form():
    src = ("print('x')\nimport sys\nsys.stdout.write('y')\n"
           "sys.stderr.write('z')\nf(print)\nlines = ('x',)\n")
    assert output_calls(src) == ["1: print", "3: sys.stdout.write", "4: sys.stderr.write"]


def test_checks_print_nothing():
    # a check hands what it reports to cli.py in its Check record
    assert output_calls((SRC / "checks.py").read_text(encoding="utf-8")) == []
