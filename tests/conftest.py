import faulthandler
import os

import pytest

from dfinite import DiffOp, Poly, TruncSeries

# the largest ceiling the acceptance suite declares (criterion 6(ii))
TEST_TIME_LIMIT_S = 1800
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while output capture is off:
    # a traceback written into a test's capture would be lost on exit
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _time_limit(pytestconfig):
    """End the run with every thread's traceback once a test has run past
    the limit, so a kernel that stops terminating fails the suite instead
    of hanging it.  faulthandler's watchdog is a thread, not a signal, so
    it leaves the interval timers to the code under test."""
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=pytestconfig.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _no_child_left():
    """Fail a test after which this process still has a child, running
    or exited and not waited for, such as a sweep worker of
    ``gen_diagonal`` that outlived its call."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail("a child process (%s) outlived the test"
                % ("still running" if pid == 0 else "pid %d, not waited for" % pid))


@pytest.fixture(scope="session")
def apery_op():
    # (z^4-34z^3+z^2) D^3 + (6z^3-153z^2+3z) D^2 + (7z^2-112z+1) D + (z-5)
    return DiffOp([
        Poly([-5, 1]),
        Poly([1, -112, 7]),
        Poly([0, 3, -153, 6]),
        Poly([0, 0, 1, -34, 1]),
    ])


@pytest.fixture(scope="session")
def apery_init():
    return TruncSeries([1, 5, 73])


@pytest.fixture(scope="session")
def sqrt_op():
    # annihilates sqrt(1-4z) + z: (1-2z)(1-4z) D^2 - 4z D + 4
    return DiffOp([Poly([4]), Poly([0, -4]), Poly([1, -2]) * Poly([1, -4])])


@pytest.fixture(scope="session")
def log_op():
    # annihilates log(1-z): (z-1) D^2 + D
    return DiffOp([Poly(), Poly([1]), Poly([-1, 1])])


@pytest.fixture(scope="session")
def delannoy_op():
    # annihilates 1/sqrt(1-6z+z^2): (z^2-6z+1) D + (z-3)
    return DiffOp([Poly([-3, 1]), Poly([1, -6, 1])])


@pytest.fixture(scope="session")
def cbrt_op():
    # annihilates (1-z)^(1/3): 3(z-1) D - 1
    return DiffOp([Poly([-1]), Poly([-3, 3])])


@pytest.fixture(scope="session")
def log_at_zero_op():
    # annihilates z^2 and z^2 log z + z (logarithm with split indicial at 0)
    return DiffOp([Poly([-2, 4]), Poly([0, 2, -3]), Poly([0, 0, -1, 1])])


@pytest.fixture(scope="session")
def cluster_log_op():
    # annihilates u^2 and u + u^2 log u for u = z^2 - 2: a logarithm at an
    # algebraic point cluster with indicial exponents {1, 2}
    return DiffOp([
        Poly([0, 0, 0, -40, 0, 16]),
        Poly([12, 0, -48, 0, 35, 0, -7]),
        Poly([0, -12, 0, 16, 0, -7, 0, 1]),
    ])
