import numpy as np
import pytest

from residue_lab._util import chunked_map_reduce


def _levelwise_sum(parts):
    """The level-wise pairwise sum: neighbours add in pairs, an odd last item
    goes up a level unchanged, until one item is left."""
    items = list(parts)
    while len(items) > 1:
        nxt = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


@pytest.mark.parametrize("workers", [1, 3])
def test_streamed_reduction_is_the_levelwise_pairwise_sum(workers):
    # parts spanning 16 decades round differently under every other
    # summation order, so equality pins the tree
    rng = np.random.default_rng(7)
    for n in range(1, 71):
        parts = [rng.normal(size=5) * 10.0 ** rng.integers(-8, 9, size=5) for _ in range(n)]
        got = chunked_map_reduce(lambda i: parts[i], list(range(n)), workers=workers)
        assert np.array_equal(got, _levelwise_sum(parts)), n


class _Tree:
    """A value whose sum records the order of the additions."""

    def __init__(self, shape):
        self.shape = shape

    def __add__(self, other):
        return _Tree((self.shape, other.shape))


@pytest.mark.parametrize("workers", [1, 3])
def test_streamed_reduction_adds_in_the_levelwise_tree(workers):
    for n in range(1, 71):
        got = chunked_map_reduce(_Tree, list(range(n)), workers=workers)
        assert got.shape == _levelwise_sum([_Tree(i) for i in range(n)]).shape, n


def test_streamed_reduction_holds_logarithmically_many_partials():
    # at most floor(log2 n) + 1 partial sums are alive at once
    alive, peak = [0], [0]

    class Part:
        def __init__(self, _):
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])

        def __add__(self, other):
            return Part(None)

        def __del__(self):
            alive[0] -= 1

    chunked_map_reduce(Part, list(range(128)), workers=1)
    assert peak[0] <= 9


def test_a_reduction_needs_a_chunk():
    with pytest.raises(ValueError):
        chunked_map_reduce(lambda c: c, [], workers=1)
