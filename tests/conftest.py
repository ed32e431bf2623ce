import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_spd():
    """A small Hermitian positive-definite matrix."""
    rng = np.random.default_rng(7)
    B = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    return B @ B.conj().T + 12 * np.eye(12)

