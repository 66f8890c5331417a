"""Source hygiene: the package is Python modules only, every top-level
import of a ``wzmahler`` module is used, every module-level ``_private``
function, class or constant is referenced, no frozen record is patched
after it is built, every error class of ``context`` is raised by some other
module, and every name the benchmark's tracer rebinds exists."""

import ast
import builtins
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import wzmahler

PACKAGE = Path(wzmahler.__file__).parent


def test_package_is_python_modules_only():
    # data the package reads is declared in Python, so the package needs no
    # package-data entry to ship it
    others = sorted(str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*")
                    if path.is_file() and path.suffix != ".py"
                    and "__pycache__" not in path.parts)
    assert others == []


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_detected():
    assert unused_imports("import os\nfrom math import pi, e as euler\nprint(pi)\n") \
        == ["os", "euler"]
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "os.path.join('a')\n") == []


def _benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its path; it imports nothing but
    dataclasses."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_no_unused_imports_in_package(monkeypatch):
    # __init__.py imports to re-export, so its names are read by importers;
    # a name the benchmark's tracer looks up in a module (TRACED) is read by
    # the tracer
    traced = set(_benchmark_workloads(monkeypatch).TRACED.values())
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(("wzmahler",) + path.relative_to(PACKAGE).with_suffix("").parts)
        names = [name for name in unused_imports(path.read_text())
                 if (module, name) not in traced]
        if path.name != "__init__.py" and names:
            found[str(path.relative_to(PACKAGE))] = names
    assert found == {}


def _named(node) -> list[str]:
    """Every name read, reached as an attribute or imported under ``node``."""
    return [n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))]


def _defined(node) -> list[str]:
    """The names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unreferenced_private(sources: list[str]) -> list[str]:
    """Module-level ``_private`` functions, classes and assigned names of the
    given module sources that no code outside their own definition names."""
    trees = [ast.parse(source) for source in sources]
    named = Counter(name for tree in trees for name in _named(tree))
    return [name for tree in trees for node in tree.body for name in _defined(node)
            if name.startswith("_") and not name.startswith("__")
            and named[name] == _named(node).count(name)]


def test_unreferenced_private_detected():
    # _a only calls itself, _C is never named; _b is read, _d is imported by
    # another module and _e is reached as an attribute
    mod = ("def _a():\n    return _a()\n\nclass _C:\n    pass\n\n"
           "def _b():\n    pass\n\ndef _d():\n    pass\n\n"
           "def _e():\n    pass\n\ndef __getattr__(name):\n    pass\n\nprint(_b)\n")
    assert unreferenced_private([mod, "from m import _d\nimport m\nm._e()\n"]) \
        == ["_a", "_C"]


def test_unreferenced_private_constant_detected():
    # _D is assigned and never read; _A is read in _C's value, _B is
    # imported by another module, _C and _E are read and _F is read by a
    # function
    mod = ("_A = 1\n_B: int = 2\n_C = {'k': _A}\n_D, _E = 3, 4\n_F = 5\n"
           "__all__ = ['f']\n\ndef f():\n    return _F\n\nprint(_C, _E)\n")
    assert unreferenced_private([mod, "from m import _B\n"]) == ["_D"]
    assert unreferenced_private(["_A = 1\n_B = [_A]\n"]) == ["_B"]


def test_no_unreferenced_private_in_package():
    sources = [path.read_text() for path in sorted(PACKAGE.rglob("*.py"))]
    assert unreferenced_private(sources) == []


def _called(node) -> list[str]:
    """The name or attribute of every function called under ``node``."""
    return [n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))]


def test_called_detected():
    assert _called(ast.parse("f(g)\nmp.quad(h, [0, 1])\nx = polyroots\n")) \
        == ["f", "quad"]


def test_polyroots_only_in_mahler():
    # no package code calls mpmath's iterative root solver or its tanh-sinh
    # quadrature: the n(alpha) node certifies its own Newton root by its
    # residual, the Jensen quadratures take the periodic rule only, and the
    # special functions take closed forms.  mahler.py alone still names
    # both, in the import that binds them for the benchmark's tracer
    calls, users = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree, name = ast.parse(path.read_text()), str(path.relative_to(PACKAGE))
        calls += [(name, f) for f in _called(tree) if f in ("polyroots", "quad")]
        if {"polyroots", "quad"} & set(_named(tree)):
            users.append(name)
    assert calls == [] and users == ["mahler.py"]


BUILTIN_ERRORS = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}


def error_classes(source: str) -> list[str]:
    """The exception and warning classes a module defines at top level:
    those with a builtin exception, or one of these classes, as a base."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                name in found or name in BUILTIN_ERRORS
                for base in node.bases for name in _named(base)[:1]):
            found.append(node.name)
    return found


def raised_classes(source: str) -> set[str]:
    """The names raised in ``source``, or passed to ``warnings.warn`` as its
    category."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.update(_named(exc)[:1])
        elif isinstance(node, ast.Call) and _called(node)[:1] == ["warn"]:
            for arg in node.args[1:2] + [k.value for k in node.keywords
                                         if k.arg == "category"]:
                found.update(_named(arg)[:1])
    return found


def unraised_errors(context: str, others: list[str]) -> list[str]:
    """The error classes of ``context`` that none of ``others`` raises."""
    raised = set().union(*map(raised_classes, others))
    return [name for name in error_classes(context) if name not in raised]


def test_unraised_errors_detected():
    # A is raised as an attribute, W is given to warnings.warn; B only
    # subclasses A, D is raised by its own module alone, N is no exception
    context = ("class A(ValueError):\n    pass\n\nclass W(UserWarning):\n"
               "    pass\n\nclass B(A):\n    pass\n\nclass D(KeyError):\n"
               "    pass\n\nclass N:\n    pass\n\n"
               "def f():\n    raise D('x')\n")
    other = ("import warnings\nimport m\n\ndef g():\n"
             "    warnings.warn('slow', category=m.W)\n    raise m.A\n")
    assert error_classes(context) == ["A", "W", "B", "D"]
    assert unraised_errors(context, [other]) == ["B", "D"]


def test_every_error_class_is_raised():
    # an error class of context.py that no other module raises or warns
    # with is dead public API
    context = PACKAGE / "context.py"
    others = [path.read_text() for path in sorted(PACKAGE.rglob("*.py"))
              if path != context]
    assert unraised_errors(context.read_text(), others) == []


def frozen_patches(source: str) -> int:
    """The number of ``object.__setattr__`` calls in ``source``."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "__setattr__"
               and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
               for node in ast.walk(ast.parse(source)))


def test_frozen_patches_detected():
    assert frozen_patches("object.__setattr__(self, 'a', 1)\nsetattr(x, 'b', 2)\n") == 1


def test_no_frozen_record_is_patched():
    # a frozen record gets its final field values from its constructor
    found = {str(path.relative_to(PACKAGE)): n for path in sorted(PACKAGE.rglob("*.py"))
             if (n := frozen_patches(path.read_text()))}
    assert found == {}


def test_startup_imports_neither_dataclasses_nor_inspect():
    # the records are NamedTuples: importing dataclasses would pull in
    # inspect, ast, dis and tokenize, and exec each class's methods
    code = ("import sys, wzmahler.registry as r; r.registry_entries(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_registry_builds_no_mpmath_gamma_table():
    # gamma_real sums Stirling's series on the tangent numbers: mpmath's
    # gamma would build its Taylor table for 1/Gamma at each precision
    code = ("from mpmath.libmp import gammazeta; "
            "from wzmahler.context import PrecisionCtx; "
            "from wzmahler.registry import run_all; "
            "[run_all(ctx=PrecisionCtx(bits=b)) for b in (256, 512)]; "
            "print(sorted(gammazeta.gamma_taylor_cache))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_benchmark_traced_bindings_resolve(monkeypatch):
    # perfbench's tracer rebinds each (module, attr) of TRACED with getattr,
    # so a refactor that drops one of these names would crash a traced
    # benchmark run
    workloads = _benchmark_workloads(monkeypatch)
    assert workloads.TRACED
    missing = [f"{module}.{attr}" for module, attr in workloads.TRACED.values()
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
