import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def amubs():
    from skewcoh.bases import qubit_amubs

    return qubit_amubs()
