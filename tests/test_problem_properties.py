"""Property tests of ``helmmg.problem``; skipped when hypothesis is absent."""

import numpy as np
import pytest

from helmmg.problem import splitmix64_uniform

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(0, 2**64 - 1), st.integers(1, 512))
@settings(max_examples=30, deadline=None)
def test_splitmix64_property(seed, count):
    vals = splitmix64_uniform(seed, count)
    assert vals.shape == (count,)
    assert np.all((vals >= 0.0) & (vals < 1.0))
    assert np.array_equal(vals, splitmix64_uniform(seed, count))
