import random
import warnings

import pytest
from hypothesis import HealthCheck, settings

# Hypothesis imports this module to report a falsifying example, and its
# libcst import emits a DeprecationWarning that the "error" filter would
# turn into an INTERNALERROR, losing the example; import it once here.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst missing: hypothesis skips the patch, nothing warns
        pass

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")

from coxlift.instances import CONE_OVER_SQUARE, ORTHANT2, QUOTIENT2


@pytest.fixture
def csq():
    return CONE_OVER_SQUARE


@pytest.fixture
def orthant():
    return ORTHANT2


@pytest.fixture
def quotient2():
    return QUOTIENT2


@pytest.fixture
def rng():
    return random.Random(12345)
