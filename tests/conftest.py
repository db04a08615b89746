import os
import re

import numpy as np
import pytest

import compactfix
from compactfix.casestudy import load_problem
from compactfix.greenop import Kernel


@pytest.fixture(scope="session")
def problem():
    return load_problem("hyperbolic-erf")


class CountingKernel(Kernel):
    """A Kernel that adds up in its dict points how many points qx and
    dlog_qx are evaluated at, per form."""

    def qx(self, x, t):
        self.points["qx"] += np.broadcast(x, t).size
        return super().qx(x, t)

    def dlog_qx(self, x, t):
        self.points["dlog_qx"] += np.broadcast(x, t).size
        return super().dlog_qx(x, t)


@pytest.fixture()
def counting_kernel(problem):
    """The case study's kernel as a CountingKernel, its counts at 0."""
    kernel = CountingKernel(**vars(problem.kernel))
    kernel.points = {"qx": 0, "dlog_qx": 0}
    return kernel


@pytest.fixture(scope="session")
def package_env():
    """os.environ with this package's source directory first on
    PYTHONPATH, for tests that start a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(compactfix.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.fixture(scope="session")
def coarse_axes():
    """Small uniform grid for operator property loops."""
    return (np.linspace(0.0, 6.0, 13), np.linspace(0.0, 1.0, 5))


@pytest.fixture(scope="session")
def c4_partials():
    """Reads the three partial M0*Phi_r integrals that C4's detail prints
    off a hypothesis report."""
    def read(report):
        found = re.search(r"partial M0\*Phi_r integrals ([^\s:]+) -> "
                          r"([^\s:]+) -> ([^\s:]+)",
                          report["hypotheses"]["C4"]["detail"])
        return [float(v) for v in found.groups()]
    return read


@pytest.fixture(scope="session")
def alpha_inf():
    """The cone functional alpha of compactfix.cones, the pointwise
    infimum, whose laws the property tests check; the package itself never
    evaluates it."""
    def alpha(samples):
        return float(np.min(samples))
    return alpha


@pytest.fixture()
def rng():
    return np.random.default_rng(20240816)
