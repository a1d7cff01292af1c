"""Guards against public names going stale: the README's library example
runs, and every module's __all__ names something that exists."""
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mbmlt
from mbmlt.cli import _THREAD_VARS

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(mbmlt.__path__))


def test_readme_library_example_runs(monkeypatch):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"mbmlt.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
