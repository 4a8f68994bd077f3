import math

import pytest
from hypothesis import settings

from chebscale import ChebyshevScale, artifacts_for, make_schedule

# property tests draw the same examples on every run and keep no example
# database between runs, so the suite's outcome depends on the code alone
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def appendix_scale():
    """The fourth-order exp/poly/log scale on [4, inf); T sits to the right
    of the interior zero of W(phi_1, phi_2, phi_3) near x = 3.36."""
    return ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=4.0, x0=math.inf)


@pytest.fixture(scope="session")
def appendix_schedule():
    return make_schedule(4.0, math.inf, 10, 1.22)


@pytest.fixture(scope="session")
def appendix_artifacts(appendix_scale, appendix_schedule):
    return artifacts_for(appendix_scale, appendix_schedule)


@pytest.fixture(scope="session")
def cubic_scale():
    """All-positive leading Wronskians: (1, x, x^2, x^3) toward 0 from the left."""
    return ChebyshevScale.from_exprs(["1", "x", "x^2", "x^3"], T=-1.0, x0=0.0)


@pytest.fixture(scope="session")
def cubic_schedule():
    return make_schedule(-1.0, 0.0, 12, 0.5)


@pytest.fixture(scope="session")
def cubic_artifacts(cubic_scale, cubic_schedule):
    return artifacts_for(cubic_scale, cubic_schedule)


@pytest.fixture(scope="session")
def poly_scale():
    """Rational scale at +inf, no exponentials: (x^3, x^2, x, 1)."""
    return ChebyshevScale.from_exprs(["x^3", "x^2", "x", "1"], T=1.0, x0=math.inf)


@pytest.fixture(scope="session")
def poly_schedule():
    return make_schedule(1.0, math.inf, 12, 1.5)


@pytest.fixture(scope="session")
def poly_artifacts(poly_scale, poly_schedule):
    return artifacts_for(poly_scale, poly_schedule)


@pytest.fixture(scope="session")
def taylor_scale():
    """Powers of (1 - x) toward 1 from the left."""
    return ChebyshevScale.from_exprs(["1", "1-x", "(1-x)^2", "(1-x)^3"], T=0.0, x0=1.0)


@pytest.fixture(scope="session")
def taylor_artifacts(taylor_scale):
    return artifacts_for(taylor_scale, make_schedule(0.0, 1.0, 12, 0.5))
