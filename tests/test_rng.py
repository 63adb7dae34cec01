import pytest

from quintics.rng import SplitMix64, derive_seed


def _below_one_word(rng, bound):
    """``SplitMix64.below`` with one 64-bit output per candidate, the draw for
    every bound up to 2^64."""
    limit = (1 << 64) - ((1 << 64) % bound)
    while True:
        v = rng.next_u64()
        if v < limit:
            return v % bound


def test_below_keeps_the_one_word_stream_up_to_2_64():
    sizes = SplitMix64(derive_seed(31, 64))
    bounds = [1, 2, 3, 101, 65521, (1 << 63) + 1, (1 << 64) - 1, 1 << 64]
    for _ in range(2000):
        bits = sizes.below(64) + 1
        bounds.append(sizes.below(1 << bits) + 1)
    got, want = SplitMix64(5), SplitMix64(5)
    for bound in bounds:
        assert got.below(bound) == _below_one_word(want, bound), bound
    assert got.state == want.state


@pytest.mark.parametrize("bound", [(1 << 64) + 1, 1 << 80, 3317044064679887385961813])
def test_below_draws_above_2_64_in_range(bound):
    rng = SplitMix64(7)
    draws = [rng.below(bound) for _ in range(200)]
    assert all(0 <= v < bound for v in draws)
    assert min(draws) < bound // 2 < max(draws)


def _below_span(rng, bound):
    """``SplitMix64.below`` as the loop over the span 2^(64k) and the words
    left to join, for every bound."""
    span = 1 << 64
    while span < bound:
        span <<= 64
    limit = span - span % bound
    while True:
        v, rest = rng.next_u64(), span >> 64
        while rest > 1:
            v, rest = v << 64 | rng.next_u64(), rest >> 64
        if v < limit:
            return v % bound


def test_below_joins_the_least_number_of_words_for_every_bound():
    sizes = SplitMix64(derive_seed(31, 65))
    bounds = [1, 1 << 64, (1 << 64) + 1, (1 << 128) - 1, 1 << 128, (1 << 128) + 1,
              3 * (1 << 127) + 1, 3317044064679887385961813]
    for _ in range(500):
        bounds.append(sizes.below(1 << (sizes.below(200) + 1)) + 1)
    got, want = SplitMix64(9), SplitMix64(9)
    for bound in bounds:
        assert got.below(bound) == _below_span(want, bound), bound
    assert got.state == want.state


def _words_drawn(rng, seed):
    """The 64-bit words a SplitMix64 seeded by ``seed`` has given: each adds
    the odd constant to the state."""
    return (rng.state - seed) * pow(0x9E3779B97F4A7C15, -1, 1 << 64) % (1 << 64)


@pytest.mark.parametrize("bound", [2, 3, 101, 65521, (1 << 61) - 1, (1 << 63) + 1, 1 << 64,
                                   (1 << 64) + 1, 3317044064679887385961813])
def test_below_n_draws_what_n_calls_of_below_draw(bound):
    got, want = SplitMix64(11), SplitMix64(11)
    drawn = 0
    for n in (0, 1, 2, 3, 9, 1, 50, 200):
        assert got.below_n(bound, n) == [want.below(bound) for _ in range(n)], n
        assert got.state == want.state
        drawn += n
    words = _words_drawn(got, 11)
    if bound == (1 << 63) + 1:
        # the top range rejects almost half the words
        assert 1.5 * drawn < words < 2.5 * drawn
    elif bound <= 1 << 64:
        assert words == drawn
    else:
        assert words >= 2 * drawn


def test_below_n_refuses_a_bound_below_one():
    for bound in (0, -3):
        with pytest.raises(ValueError):
            SplitMix64(1).below_n(bound, 2)
