import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutysim.errors import QTableFormatError
from dutysim.qsched import (
    DEFAULT_ACTIONS,
    ActionSpace,
    Hyperparameters,
    QTable,
    decay_epsilon,
    init_from_distribution,
    load_qtable,
    q_update,
    reward,
    save_qtable,
    select_action,
)
from dutysim.rng import substream


def test_action_space_defaults():
    space = ActionSpace()
    assert space.intervals == (3.0, 5.0, 60.0, 300.0, 1800.0)
    assert len(space) == 5
    assert space[2] == 60.0


def test_action_space_validation():
    with pytest.raises(ValueError):
        ActionSpace(intervals=(3.0,))
    with pytest.raises(ValueError):
        ActionSpace(intervals=(3.0, 2.0))
    with pytest.raises(ValueError):
        ActionSpace(intervals=(0.0, 5.0))


def test_hyperparameter_defaults():
    hp = Hyperparameters()
    assert (hp.gamma, hp.alpha) == (0.9, 0.1)
    assert (hp.eps_max, hp.eps_min, hp.eps_decay) == (0.3, 0.1, 0.99)
    assert hp.beta == 1e-5
    assert hp.w1 == 0.1


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        Hyperparameters(gamma=1.5)
    with pytest.raises(ValueError):
        Hyperparameters(eps_min=0.5, eps_max=0.3)
    with pytest.raises(ValueError):
        Hyperparameters(eps_decay=0.0)
    with pytest.raises(ValueError, match="alpha"):
        Hyperparameters(alpha=1.5)


def test_reward_examples():
    assert reward(0, 0, 0.1) == 0.0
    assert reward(5, 10, 0.1) == 4.0
    assert reward(0, 20, 0.5) == -10.0


def test_reward_inputs_validation():
    with pytest.raises(ValueError):
        reward(-1, 0, 0.1)


# -- q_update ----------------------------------------------------------------


def test_q_update_alpha_one_gamma_zero():
    t = QTable.zeros(24, 5)
    q_update(t, 3, 2, 2.5, 4, Hyperparameters(alpha=1.0, gamma=0.0))
    assert t.values[3, 2] == np.float32(2.5)


def test_q_update_hand_computed():
    t = QTable.zeros(24, 5)
    t.values[4, 0] = 2.0
    q_update(t, 3, 1, 1.0, 4, Hyperparameters(alpha=0.1, gamma=0.9))
    # 0 + 0.1 * (1 + 0.9*2 - 0) = 0.28
    assert t.values[3, 1] == np.float32(0.28)


def test_q_update_zero_alpha_is_identity():
    t = QTable.zeros(24, 5)
    t.values[:] = substream(0, "fill").normal(size=(24, 5))
    before = t.values.copy()
    q_update(t, 5, 3, 100.0, 6, Hyperparameters(alpha=0.0))
    assert np.array_equal(t.values, before)
    assert t.visits[5, 3] == 1


def test_q_update_touches_one_cell():
    rng = substream(1, "qu")
    t = QTable.zeros(24, 5)
    t.values[:] = rng.normal(size=(24, 5)).astype(np.float32)
    hp = Hyperparameters()
    for _ in range(200):
        s = int(rng.integers(24))
        a = int(rng.integers(5))
        r = float(rng.normal())
        s2 = int(rng.integers(24))
        before = t.values.copy()
        q = float(before[s, a])
        expected_delta = abs(hp.alpha * (r + hp.gamma * float(before[s2].max()) - q))
        q_update(t, s, a, r, s2, hp)
        diff = np.abs(t.values.astype(np.float64) - before.astype(np.float64))
        off_focal = diff.copy()
        off_focal[s, a] = 0.0
        assert off_focal.sum() == 0.0
        assert diff[s, a] == pytest.approx(expected_delta, abs=1e-6)


def test_q_update_bounded_under_bounded_rewards():
    # |r| <= R and gamma < 1 keep all values within R / (1 - gamma) from a
    # zero start. 10^5 random updates, bound = 5 / 0.1 = 50.
    rng = substream(2, "bound")
    hp = Hyperparameters(alpha=0.1, gamma=0.9)
    t = QTable.zeros(24, 5)
    r_max = 5.0
    bound = r_max / (1.0 - hp.gamma)
    states = rng.integers(24, size=10**5)
    actions = rng.integers(5, size=10**5)
    rewards = rng.uniform(-r_max, r_max, size=10**5)
    nxt = rng.integers(24, size=10**5)
    for i in range(10**5):
        q_update(t, int(states[i]), int(actions[i]), float(rewards[i]), int(nxt[i]), hp)
    assert np.all(np.abs(t.values) <= bound)
    assert int(t.visits.sum()) == 10**5


def test_q_update_index_errors():
    t = QTable.zeros(24, 5)
    with pytest.raises(IndexError):
        q_update(t, 24, 0, 0.0, 0, Hyperparameters())
    with pytest.raises(IndexError):
        q_update(t, 0, 7, 0.0, 0, Hyperparameters())


def test_q_update_rejects_non_finite_reward():
    t = QTable.zeros(24, 5)
    with pytest.raises(ValueError):
        q_update(t, 0, 0, float("nan"), 0, Hyperparameters())


@pytest.mark.parametrize("r", [-1e40, 1e40, 3.5e39])
def test_q_update_rejects_values_float32_cannot_hold(r):
    # Finite in float64, but stored as a float32 cell the value would be inf.
    t = QTable.zeros(24, 5)
    t.values[0, 1] = 7.0
    t.visits[0, 1] = 3
    before = t.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float32"):
            q_update(t, 0, 1, r, 0, Hyperparameters())
    assert np.array_equal(t.values, before.values)
    assert np.array_equal(t.visits, before.visits)


@given(
    s=st.integers(0, 23),
    a=st.integers(0, 4),
    r=st.floats(-100.0, 100.0),
    s2=st.integers(0, 23),
)
@settings(max_examples=100, deadline=None)
def test_q_update_matches_formula(s, a, r, s2):
    t = QTable.zeros(24, 5)
    t.values[:] = substream(3, "prop").normal(size=(24, 5)).astype(np.float32)
    hp = Hyperparameters()
    q = float(t.values[s, a])
    best = float(t.values[s2].max())
    expect = np.float32(q + hp.alpha * (r + hp.gamma * best - q))
    q_update(t, s, a, r, s2, hp)
    assert t.values[s, a] == expect


# -- action selection --------------------------------------------------------


def test_select_greedy_argmax():
    t = QTable.zeros(1, 3)
    t.values[0] = [1.0, 3.0, 2.0]
    assert select_action(t, 0, 0.0, substream(0, "x")) == 1


def test_select_greedy_tie_breaks_low():
    t = QTable.zeros(1, 3)
    t.values[0] = [2.0, 2.0, 0.0]
    assert select_action(t, 0, 0.0, substream(0, "x")) == 0


def test_select_eps_zero_consumes_no_draws():
    t = QTable.zeros(4, 5)
    rng = substream(9, "sel")
    select_action(t, 2, 0.0, rng)
    assert rng.random() == substream(9, "sel").random()


def test_select_eps_one_uniform():
    t = QTable.zeros(1, 5)
    t.values[0] = [9.0, 0.0, 0.0, 0.0, 0.0]
    rng = substream(4, "uniform")
    n = 10000
    counts = np.bincount([select_action(t, 0, 1.0, rng) for _ in range(n)], minlength=5)
    p = 1.0 / 5.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3.0 * sigma)


def test_select_validates_epsilon():
    t = QTable.zeros(1, 2)
    with pytest.raises(ValueError):
        select_action(t, 0, 1.5, substream(0, "x"))


def test_greedy_policy_affine_invariance():
    rng = substream(5, "affine")
    t = QTable.zeros(24, 5)
    t.values[:] = rng.normal(size=(24, 5)).astype(np.float32)
    scaled = t.copy()
    scaled.values[:] = (scaled.values * 3.5 + 11.0).astype(np.float32)
    assert np.array_equal(t.greedy_policy(), scaled.greedy_policy())


# -- epsilon decay -----------------------------------------------------------


def test_decay_examples():
    hp = Hyperparameters()
    assert decay_epsilon(0.3, hp) == pytest.approx(0.297)
    assert decay_epsilon(0.1, hp) == 0.1


def test_decay_reaches_floor():
    hp = Hyperparameters()
    eps = hp.eps_max
    for _ in range(200):
        eps = decay_epsilon(eps, hp)
    assert eps == hp.eps_min


# -- initialization ----------------------------------------------------------


def test_init_zero_probabilities():
    t = init_from_distribution(np.zeros(24), 10.0, 5)
    assert np.all(t.values == 0.0)


def test_init_uniform_rows_identical():
    t = init_from_distribution(np.full(24, 0.5), 10.0, 5)
    assert np.all(t.values == t.values[0])


def test_init_monotone_probabilities_prefer_short_intervals():
    probs = np.linspace(0.0, 1.0, 24)
    t = init_from_distribution(probs, 10.0, 5)
    policy = t.greedy_policy()
    intervals = np.array(DEFAULT_ACTIONS)[policy]
    assert np.all(np.diff(intervals) <= 0)


def test_init_validation():
    with pytest.raises(ValueError):
        init_from_distribution(np.array([0.5, 1.5]), 1.0, 5)
    with pytest.raises(ValueError):
        init_from_distribution(np.array([0.5]), 1.0, 1)
    with pytest.raises(ValueError, match="non-empty 1D"):
        init_from_distribution(np.full((2, 24), 0.5), 1.0, 5)
    # A scale past float32's range would store inf; NaN is rejected with it.
    for scale in (1e39, -1e39, np.nan):
        with pytest.raises(ValueError, match="scale"):
            init_from_distribution([1.0] * 24, scale, 5)


# -- serialization -----------------------------------------------------------


def test_save_load_round_trip():
    rng = substream(6, "ser")
    t = QTable.zeros(24, 5)
    t.values[:] = rng.normal(size=(24, 5)).astype(np.float32)
    t.visits[:] = rng.integers(0, 1000, size=(24, 5)).astype(np.uint32)
    back = load_qtable(save_qtable(t))
    assert np.array_equal(back.values, t.values)
    assert np.array_equal(back.visits, t.visits)


def test_save_size_24x7():
    t = QTable.zeros(24, 7)
    blob = save_qtable(t)
    header = 4 + 1 + 2 + 2
    assert len(blob) == header + 24 * 7 * 4 + 24 * 7 * 4
    assert len(blob) <= 4096
    assert blob[:4] == b"QTBL"


def test_load_truncated():
    blob = save_qtable(QTable.zeros(24, 5))
    with pytest.raises(QTableFormatError):
        load_qtable(blob[:10])
    with pytest.raises(QTableFormatError):
        load_qtable(blob[:3])


def test_load_bad_magic():
    blob = b"NOPE" + save_qtable(QTable.zeros(2, 2))[4:]
    with pytest.raises(QTableFormatError, match="magic"):
        load_qtable(blob)


def test_table_dimensions_must_be_positive():
    with pytest.raises(ValueError, match="dimensions"):
        QTable.zeros(0, 5)
    header = save_qtable(QTable.zeros(2, 2))[:9]  # magic, version, states, actions
    version = header[4]
    with pytest.raises(QTableFormatError, match="unsupported version"):
        load_qtable(header[:4] + bytes([version + 1]) + header[5:])
    with pytest.raises(QTableFormatError, match="bad dimensions 0x2"):
        load_qtable(header[:4] + struct.pack("<BHH", version, 0, 2))


def test_load_trailing_bytes_rejected():
    blob = save_qtable(QTable.zeros(2, 2)) + b"\x00"
    with pytest.raises(QTableFormatError):
        load_qtable(blob)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tables_never_take_non_finite_values(bad):
    # q_update reads a row's max as Python's max of its values, which
    # equals numpy's only while no value is NaN.
    values = np.array([[0.0, 1.0], [bad, 2.0]], dtype=np.float32)
    with pytest.raises(ValueError, match="finite"):
        QTable(values=values, visits=np.zeros((2, 2), dtype=np.uint32))
    t = QTable.zeros(2, 2)
    t.values[1, 0] = bad
    with pytest.raises(QTableFormatError, match="finite"):
        load_qtable(save_qtable(t))
    with pytest.raises(ValueError, match="probabilities"):
        init_from_distribution([0.5, bad], 1.0, 2)


def test_greedy_action_is_numpy_argmax_with_a_nan_written_in():
    # A NaN written into values after the table is built is not caught;
    # greedy_action answers as argmax does and picks the NaN's index.
    t = QTable.zeros(1, 3)
    t.values[0] = [1.0, np.nan, 2.0]
    assert t.greedy_action(0) == 1
