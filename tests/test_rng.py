import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzphase.circular import TWO_PI
from mzphase.rng import Draws, make_generator, normal


def test_draws_hand_out_the_one_by_one_doubles():
    twin = make_generator([3, 1, 4])
    draws = Draws(make_generator([3, 1, 4]), 50)
    assert [draws.random() for _ in range(50)] == [twin.random() for _ in range(50)]


def test_draws_uniform_equals_generator_uniform_bit_for_bit():
    # the flat-posterior feedback TWO_PI * random() is Generator.uniform(0, 2 pi)
    twin = make_generator(5)
    draws = Draws(make_generator(5), 1000)
    for _ in range(1000):
        assert (TWO_PI * draws.random()).hex() == twin.uniform(0.0, TWO_PI).hex()


def test_draws_serve_the_scalar_draw_sites():
    twin = make_generator(8)
    draws = Draws(make_generator(8), 4)
    assert normal(draws) == normal(twin)
    assert normal(draws) == normal(twin)


def test_a_draw_past_the_count_raises():
    draws = Draws(make_generator(12), 3)
    for _ in range(3):
        draws.random()
    with pytest.raises(StopIteration):
        draws.random()


@settings(max_examples=60, deadline=None)
@given(
    extra=st.integers(0, 40),
    takes=st.lists(st.booleans(), max_size=90),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_draws_match_a_one_by_one_twin(extra, takes, seed):
    # each take is a random() (False) or TWO_PI * random(), the twin's
    # uniform(0, 2 pi) (True)
    twin = make_generator(seed)
    draws = Draws(make_generator(seed), len(takes) + extra)
    for uniform in takes:
        if uniform:
            assert (TWO_PI * draws.random()).hex() == twin.uniform(0.0, TWO_PI).hex()
        else:
            value = draws.random()
            assert value == twin.random() and 0.0 <= value < 1.0 and not math.isnan(value)
