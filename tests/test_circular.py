import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mzphase import TWO_PI, wrap_phase, wrap_signed
from mzphase.circular import holevo_sigma

angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _congruent(a, b):
    """a and b differ by a multiple of 2*pi, up to the rounding of a
    remainder of the larger one."""
    return abs(math.remainder(a - b, TWO_PI)) <= 4 * math.ulp(max(abs(b), TWO_PI))


@given(angles)
@example(-1e-17)
def test_wrap_phase_lands_in_range_and_keeps_the_angle(x):
    wrapped = wrap_phase(x)
    assert 0.0 <= wrapped < TWO_PI
    assert _congruent(wrapped, x)


@given(angles)
@example(float(np.nextafter(math.pi, 4.0)))
def test_wrap_signed_lands_in_range_and_keeps_the_angle(x):
    wrapped = wrap_signed(x)
    assert -math.pi < wrapped <= math.pi
    assert _congruent(wrapped, x)


@pytest.mark.parametrize("x", [-1e-17, -5e-324, np.float64(-1e-17)])
def test_wrap_phase_maps_a_rounded_up_remainder_to_zero(x):
    # x % 2pi rounds these up to 2pi itself
    wrapped = wrap_phase(x)
    assert wrapped == 0.0
    assert type(wrapped) is float


def test_wrap_phase_keeps_arrays_arrays():
    wrapped = wrap_phase(np.array([-1e-17, 1.0, 7.0]))
    assert isinstance(wrapped, np.ndarray)
    assert wrapped.tolist() == [0.0, 1.0, 7.0 - TWO_PI]


def test_wrap_signed_maps_just_above_pi_to_pi():
    # pi - x is a tiny negative number here, whose remainder rounds up to 2pi
    assert wrap_signed(np.nextafter(math.pi, 4.0)) == math.pi
    assert wrap_signed(np.array([np.nextafter(math.pi, 4.0)])).tolist() == [math.pi]


def test_holevo_sigma_of_a_point_and_of_a_spread_sample():
    assert holevo_sigma([0.7] * 5) == 0.0
    assert holevo_sigma([0.0, math.pi]) == math.inf
    s = abs(np.exp(1j * np.array([0.1, 0.5])).mean())
    assert holevo_sigma([0.1, 0.5]) == pytest.approx(math.sqrt(1.0 / s ** 2 - 1.0))


@pytest.mark.parametrize("angles", [[], [math.nan, 1.0], [1.0, math.inf]])
def test_holevo_sigma_rejects_an_empty_or_non_finite_sample(angles):
    with pytest.raises(ValueError):
        holevo_sigma(angles)
