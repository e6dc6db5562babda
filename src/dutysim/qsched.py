"""Tabular Q-learning for duty-cycle selection.

State is a discrete scheduling period (hour of day by default), actions are
activation intervals in seconds. The table stores float32 values with all
update arithmetic done in float64, plus a visit counter per cell. Learning
follows the one-step update

    Q(s, a) <- Q(s, a) + alpha * (r + gamma * max_a' Q(s', a') - Q(s, a))

with epsilon-greedy selection and per-episode epsilon decay
epsilon <- max(eps_min, epsilon * eps_decay). The period reward r is
``reward(n_pos, n_neg, w1) = n_pos - w1 * n_neg``: the period's positive
activations minus its w1-weighted false ones.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import QTableFormatError
from .power import check_seconds

__all__ = [
    "ActionSpace",
    "DEFAULT_ACTIONS",
    "Hyperparameters",
    "QTable",
    "reward",
    "q_update",
    "select_action",
    "decay_epsilon",
    "init_from_distribution",
    "save_qtable",
    "load_qtable",
]

DEFAULT_ACTIONS = (3.0, 5.0, 60.0, 300.0, 1800.0)

# The largest magnitude a float32 table cell holds.
Q_MAX = float(np.finfo(np.float32).max)
# The most states and actions a table can have: the Q-table file keeps
# n_states and n_actions as u16 counts.
MAX_STATES = MAX_ACTIONS = 2**16 - 1
# The largest reward weight (w1, and the network's w2 and w3). Even at 1 ns
# wake intervals a period reward then stays below about 4e18, far inside Q_MAX.
W_MAX = 1e6

_MAGIC = b"QTBL"
_VERSION = 1


@dataclass(frozen=True)
class ActionSpace:
    """Strictly increasing activation intervals in seconds, 2 to MAX_ACTIONS of them.

    Each lies within power.MAX_SECONDS, the engine clock's limit.
    """

    intervals: tuple[float, ...] = DEFAULT_ACTIONS

    def __post_init__(self):
        if len(self.intervals) < 2:
            raise ValueError("action space needs at least 2 intervals")
        if len(self.intervals) > MAX_ACTIONS:
            raise ValueError(
                f"action space holds at most {MAX_ACTIONS} intervals, the Q-table file's "
                f"limit, got {len(self.intervals)}"
            )
        if any(v <= 0 for v in self.intervals):
            raise ValueError("intervals must be positive")
        for v in self.intervals:
            check_seconds(v, "intervals")
        if any(b <= a for a, b in zip(self.intervals, self.intervals[1:])):
            raise ValueError("intervals must be strictly increasing")

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, idx: int) -> float:
        return self.intervals[idx]


@dataclass(frozen=True)
class Hyperparameters:
    gamma: float = 0.9
    alpha: float = 0.1
    eps_max: float = 0.3
    eps_min: float = 0.1
    eps_decay: float = 0.99
    # beta is carried for completeness; nothing consumes it.
    beta: float = 1e-5
    w1: float = 0.1

    def __post_init__(self):
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 <= self.eps_min <= self.eps_max <= 1:
            raise ValueError("need 0 <= eps_min <= eps_max <= 1")
        if not 0 < self.eps_decay <= 1:
            raise ValueError(f"eps_decay must be in (0, 1], got {self.eps_decay}")
        if not 0 <= self.w1 <= W_MAX:
            raise ValueError(f"w1 must be in [0, {W_MAX:g}], got {self.w1}")


@dataclass
class QTable:
    """Action-value table: values[s, a] float32, visits[s, a] uint32.

    Values are finite: a table is checked when built, and ``q_update``,
    ``init_from_distribution`` and ``load_qtable`` never make or accept NaN
    or infinity, so ``q_update``'s Python ``max`` of a row is its numpy max.

    Single writer; reads during an update see either the old or new value of
    the one touched cell.
    """

    values: np.ndarray
    visits: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.values).all():
            raise ValueError("Q values must be finite")

    @classmethod
    def zeros(cls, n_states: int, n_actions: int) -> "QTable":
        if n_states < 1 or n_actions < 1:
            raise ValueError("table dimensions must be >= 1")
        return cls(
            values=np.zeros((n_states, n_actions), dtype=np.float32),
            visits=np.zeros((n_states, n_actions), dtype=np.uint32),
        )

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @property
    def n_actions(self) -> int:
        return self.values.shape[1]

    def greedy_action(self, state: int) -> int:
        """Lowest-index argmax over the state's row."""
        return int(self.values[state].argmax())

    def greedy_policy(self) -> np.ndarray:
        return self.values.argmax(axis=1).astype(np.int64)

    def copy(self) -> "QTable":
        return QTable(values=self.values.copy(), visits=self.visits.copy())


def reward(n_pos: int, n_neg: int, w1: float) -> float:
    """Per-period reward: positives minus w1-weighted negatives."""
    if n_pos < 0 or n_neg < 0:
        raise ValueError("activation counts must be >= 0")
    return n_pos - w1 * n_neg


def q_update(
    table: QTable,
    state: int,
    action: int,
    r: float,
    next_state: int,
    hp: Hyperparameters,
) -> QTable:
    """One-step in-place update of the (state, action) cell.

    Arithmetic runs in float64; the result is stored back as float32. The
    visit counter for the cell increments by one. A result beyond float32's
    range raises ValueError and leaves the cell and its count unchanged.
    """
    if not math.isfinite(r):
        raise ValueError(f"reward must be finite, got {r}")
    q = float(table.values[state, action])
    best_next = max(table.values[next_state].tolist())
    updated = q + hp.alpha * (r + hp.gamma * best_next - q)
    if not abs(updated) <= Q_MAX:
        raise ValueError(f"q_update produced {updated}, outside float32 range")
    table.values[state, action] = updated  # rounds to float32 as np.float32(updated) does
    table.visits[state, action] += 1
    return table


def select_action(
    table: QTable, state: int, epsilon: float, rng: np.random.Generator
) -> int:
    """Epsilon-greedy pick; greedy ties break to the lowest action index.

    With epsilon == 0 no random draw happens, so the call is a pure function
    of the table.
    """
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(table.n_actions))
    return table.greedy_action(state)


def decay_epsilon(epsilon: float, hp: Hyperparameters) -> float:
    return max(hp.eps_min, epsilon * hp.eps_decay)


def init_from_distribution(
    event_prob: np.ndarray | list[float],
    scale: float,
    n_actions: int,
) -> QTable:
    """Seed a table from per-period event probabilities.

    Q(s, a) = scale * event_prob[s] * rank_weight(a), with rank_weight linear
    in action rank from 1 at the most frequent activation down to 0 at the
    least. Periods with higher event probability get proportionally stronger
    preference for frequent activation; zero-probability rows stay zero.
    """
    probs = np.asarray(event_prob, dtype=np.float64)
    if probs.ndim != 1 or probs.size < 1:
        raise ValueError("event_prob must be a non-empty 1D sequence")
    if not ((probs >= 0) & (probs <= 1)).all():
        raise ValueError("event probabilities must lie in [0, 1]")
    if n_actions < 2:
        raise ValueError("need at least 2 actions")
    if not abs(scale) <= Q_MAX:
        raise ValueError(f"scale must lie within float32 range, got {scale}")
    rank_weight = (n_actions - 1 - np.arange(n_actions)) / (n_actions - 1)
    values = (scale * np.outer(probs, rank_weight)).astype(np.float32)
    return QTable(values=values, visits=np.zeros_like(values, dtype=np.uint32))


# -- serialization ----------------------------------------------------------
#
# Layout, little-endian: magic "QTBL", version u8, n_states u16, n_actions
# u16 (hence MAX_STATES and MAX_ACTIONS), then n_states*n_actions float32
# values row-major, then the same count of uint32 visit counters.


def save_qtable(table: QTable) -> bytes:
    header = _MAGIC + struct.pack("<BHH", _VERSION, table.n_states, table.n_actions)
    values = np.ascontiguousarray(table.values, dtype="<f4").tobytes()
    visits = np.ascontiguousarray(table.visits, dtype="<u4").tobytes()
    return header + values + visits


def load_qtable(data: bytes) -> QTable:
    head_len = len(_MAGIC) + struct.calcsize("<BHH")
    if len(data) < head_len:
        raise QTableFormatError("payload shorter than header")
    if data[:4] != _MAGIC:
        raise QTableFormatError(f"bad magic {data[:4]!r}")
    version, n_states, n_actions = struct.unpack("<BHH", data[4:head_len])
    if version != _VERSION:
        raise QTableFormatError(f"unsupported version {version}")
    if n_states < 1 or n_actions < 1:
        raise QTableFormatError(f"bad dimensions {n_states}x{n_actions}")
    count = n_states * n_actions
    expected = head_len + count * 4 + count * 4
    if len(data) != expected:
        raise QTableFormatError(
            f"expected {expected} bytes for {n_states}x{n_actions}, got {len(data)}"
        )
    values = np.frombuffer(data, dtype="<f4", count=count, offset=head_len)
    if not np.isfinite(values).all():
        raise QTableFormatError("values must be finite")
    visits = np.frombuffer(data, dtype="<u4", count=count, offset=head_len + count * 4)
    return QTable(
        values=values.reshape(n_states, n_actions).astype(np.float32),
        visits=visits.reshape(n_states, n_actions).astype(np.uint32),
    )
