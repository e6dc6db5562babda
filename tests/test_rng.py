import numpy as np
import pytest

from dutysim.rng import rekey, substream

from _oracles import stream_position


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
def test_substream_rejects_seeds_outside_64_bits(seed):
    # A seed taken mod 2**64 would alias another: 2**64 would draw as 0.
    with pytest.raises(ValueError, match="seed"):
        substream(seed, "device", 3, "day", 7)


def test_substream_rejects_a_float_seed():
    with pytest.raises(TypeError, match="seed must be an int, got float"):
        substream(3.0, "device", 3, "day", 7)


@pytest.mark.parametrize(
    "seed, first, second",
    [(0, 0.668249103591411, 4109975810141898593),
     (2**64 - 1, 0.7562195053857311, 3803659785538359992)],
    ids=["0", "2**64-1"],
)
def test_substream_draws_are_pinned_at_the_seed_range_ends(seed, first, second):
    rng = substream(seed, "device", 3, "day", 7)
    assert rng.random() == first
    assert rng.integers(2**63) == second


def test_rekeyed_stream_draws_what_a_new_substream_draws():
    # Each period a stream draws 6 doubles and one 32-bit integer, which
    # leaves 1 of Philox's 4 buffered words unread and half a word cached; a
    # re-keyed stream must start clean whatever the last period left.
    gen = substream(707, "pings", 0)
    for t in (0, 1, 5, 343, 5):
        assert rekey(gen, 707, "pings", t) is gen
        fresh = substream(707, "pings", t)
        assert stream_position(gen) == stream_position(fresh)
        assert gen.random(6).tolist() == fresh.random(6).tolist()
        assert gen.integers(2**32, dtype=np.uint32) == fresh.integers(2**32, dtype=np.uint32)
        assert stream_position(gen) == stream_position(fresh)
        assert stream_position(gen)[1:] == (3, 1)  # a partly used buffer and a cached uint32
    with pytest.raises(ValueError, match="seed"):
        rekey(gen, 2**64, "pings", 0)


@pytest.mark.parametrize("seed", [True, False])
def test_substream_rejects_a_bool_seed(seed):
    # True drew exactly what seed 1 draws, and False what seed 0 draws.
    with pytest.raises(TypeError, match="seed must be an int, got bool"):
        substream(seed, "device", 3, "day", 7)
