import os
from pathlib import Path

import numpy as np
import pytest

import mbmlt
from mbmlt.chaos import GaussianBump, TestFunction
from mbmlt.specfun import HurstFunctional


@pytest.fixture(scope="session", autouse=True)
def _package_on_subprocess_path(pytestconfig):
    """Tests that start `python -m mbmlt.cli` or `python -c` get the package
    this session imports, as the pytest `pythonpath` setting gives it to the
    session itself, and the warnings that the `filterwarnings` setting makes
    errors are errors there too."""
    src = str(Path(mbmlt.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        mp.setenv("PYTHONWARNINGS", ",".join(pytestconfig.getini("filterwarnings")))
        yield


@pytest.fixture(scope="session")
def h_const_07():
    return HurstFunctional.constant(0.7)


@pytest.fixture(scope="session")
def h_const_06():
    return HurstFunctional.constant(0.6)


@pytest.fixture(scope="session")
def h_linear():
    """h(t) = 0.55 + 0.2 t on [0, 1]."""
    return HurstFunctional.linear(0.55, 0.2)


@pytest.fixture(scope="session")
def phi_1d():
    return TestFunction((GaussianBump(0.5, 0.2, 0.8),))


@pytest.fixture(scope="session")
def phi_2d():
    return TestFunction((GaussianBump(0.6, 0.0, 1.0), GaussianBump(0.4, 0.5, 0.7)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
