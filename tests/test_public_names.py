"""Guards against public names going stale: the README's library example
runs, its config example lists the keys the CLI accepts, every module's
__all__ names something that exists, no module of the package or the
tests imports a name it does not use, every function or method of the
package is exported or used by the package itself, only specfun
compares a value against inf, and no analytic route takes a horizon of its
own."""
import ast
import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mbmlt
from mbmlt import chaos, localtime
from mbmlt.cli import _CONFIG_KEYS, _THREAD_VARS

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(mbmlt.__path__))
TESTS = Path(__file__).resolve().parent
PACKAGE = sorted(Path(mbmlt.__file__).parent.glob("*.py"))
SOURCES = PACKAGE + sorted(TESTS.glob("*.py"))


def test_readme_library_example_runs(monkeypatch):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2


def test_readme_config_example_lists_the_known_keys():
    # the CLI rejects every other top-level key, so the two cannot drift apart
    (example,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert set(json.loads(example)) == _CONFIG_KEYS


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"mbmlt.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: f"tests/{p.name}" if p.parent == TESTS else p.name)
def test_no_dead_imports(path):
    # every imported name is used in its module or re-exported by __all__
    tree = ast.parse(path.read_text())
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            exported |= set(ast.literal_eval(node.value))
    assert sorted(imported - used - exported) == []


#: calls that open or write a file
_FILE_CALLS = {"open", "write_text", "write_bytes", "savetxt", "tofile"}


def test_only_the_cli_writes_files():
    # every output format lives in cli.py, so no library module touches a file
    offenders = []
    for path in PACKAGE:
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _FILE_CALLS:
                    offenders.append(f"{path.name}:{node.lineno} {name}(")
    assert offenders == []


def test_only_specfun_compares_against_inf():
    # specfun._eps is the one range check of an eps, so a comparison against
    # math.inf (or np.inf) elsewhere in the package is an inline second rule
    offenders = []
    for path in PACKAGE:
        if path.name == "specfun.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Attribute) and side.attr == "inf"
                    for side in [node.left, *node.comparators]):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


def _references(tree) -> Counter:
    """Every name and attribute read in a syntax tree, with its count."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_function_is_used_or_exported():
    # a function or method that only tests call, or nothing calls, does not
    # belong in the package: it must be in its module's __all__, be a dunder,
    # or be referenced somewhere in the package outside its own body
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE}
    used = sum(map(_references, trees.values()), Counter())
    defs = []
    for name, tree in trees.items():
        exported = importlib.import_module(f"mbmlt.{name[:-3]}").__dict__.get("__all__", ())
        defs += [(name, node) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name not in exported
                 and not (node.name.startswith("__") and node.name.endswith("__"))]
    inner = Counter()  # a recursive call does not count as a use
    for _, node in defs:
        inner[node.name] += _references(node)[node.name]
    unused = sorted(f"{name}:{node.lineno} {node.name}" for name, node in defs
                    if used[node.name] - inner[node.name] <= 0)
    assert unused == []


def test_no_route_takes_a_second_horizon():
    # every analytic route integrates over [0, h.T], the horizon h was built
    # on and checked on, so a parameter T would be a second horizon
    routes = [getattr(m, name) for m in (chaos, localtime) for name in m.__all__]
    offenders = [r.__qualname__ for r in [*routes, chaos._TimeRule]
                 if callable(r) and "T" in inspect.signature(r).parameters]
    assert offenders == []
