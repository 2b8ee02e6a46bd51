import numpy as np
import pytest

from quanvrob.patches import planes


@pytest.mark.parametrize("shape", [(3, 6, 4), (2, 2, 2), (1, 28, 28), (0, 4, 4)])
def test_planes_match_an_explicit_loop(shape):
    x = np.random.default_rng(0).random(shape)
    view = planes(x)
    n, h, w = shape
    assert view.shape == (n, 2, 2, h // 2, w // 2)
    for idx in np.ndindex(view.shape):
        k, a, b, i, j = idx
        assert view[idx] == x[k, 2 * i + a, 2 * j + b]


@pytest.mark.parametrize("shape", [(4, 6), (2, 2)])
def test_one_image_is_a_stack_of_one(shape):
    x = np.random.default_rng(1).random(shape)
    assert np.array_equal(planes(x), planes(x[None]))


def test_planes_are_a_view_of_the_image():
    x = np.zeros((2, 4, 4))
    view = planes(x)
    view[1, 1, 0, 0, 1] = 5.0
    assert x[1, 2 * 0 + 1, 2 * 1 + 0] == 5.0 and np.count_nonzero(x) == 1
    assert np.shares_memory(view, x)


@pytest.mark.parametrize("shape", [(7, 8), (8, 7), (2, 3, 4), (2, 4, 1), (1,), (28,), (1, 1, 4, 4)])
def test_planes_reject_odd_sides_and_other_ranks(shape):
    with pytest.raises(ValueError):
        planes(np.zeros(shape))
