import pytest

from dutysim.rng import substream


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
def test_substream_rejects_seeds_outside_64_bits(seed):
    # A seed taken mod 2**64 would alias another: 2**64 would draw as 0.
    with pytest.raises(ValueError, match="seed"):
        substream(seed, "device", 3, "day", 7)


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
