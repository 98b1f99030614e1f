"""Swept-magnitude trace types shared by the synthesizer and detector.

A ``Sweep`` is one analyzer acquisition.  A ``SweepBlock`` is T
acquisitions on one shared grid, validated once as a whole.  It is a
sequence of sweeps: iterating it or indexing it with an int gives rows
as ``Sweep`` views, and slicing it gives a ``SweepBlock`` view; neither
is validated again.  ``as_block`` stacks sweeps on one grid into a new
block, so a train of sweeps is read as one block or not at all.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


def _checked(frequencies, magnitudes, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid (N,) and magnitudes (N,) or (T, N) as read-only float arrays,
    after the checks every trace passes."""
    f = np.asarray(frequencies, dtype=float)
    m = np.asarray(magnitudes, dtype=float)
    if f.ndim != 1 or m.ndim != ndim or m.shape[-1:] != f.shape:
        shape = "(N,)" if ndim == 1 else "(T, N)"
        raise ValueError(
            f"frequencies must be (N,) and magnitudes {shape}, got {f.shape} and {m.shape}"
        )
    if (f[1:] <= f[:-1]).any():
        raise ValueError("frequencies must be strictly increasing")
    if not np.isfinite(f).all():
        raise ValueError("frequencies must be finite")
    if not np.isfinite(m).all():
        raise ValueError("magnitudes must be finite (no NaN or inf)")
    f.flags.writeable = False
    m.flags.writeable = False
    return f, m


@dataclass(frozen=True)
class Sweep:
    """One analyzer acquisition: dB magnitude per grid frequency."""

    frequencies: np.ndarray
    magnitudes_db: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        f, m = _checked(self.frequencies, self.magnitudes_db, 1)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "magnitudes_db", m)


@dataclass(frozen=True)
class SweepBlock:
    """T analyzer acquisitions on one grid: frequencies (N,), dB
    magnitudes (T, N) and timestamps (T,) in time order."""

    frequencies: np.ndarray
    magnitudes_db: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        f, m = _checked(self.frequencies, self.magnitudes_db, 2)
        t = np.asarray(self.timestamps, dtype=float)
        if t.shape != m.shape[:1]:
            raise ValueError(f"timestamps must be ({len(m)},), got {t.shape}")
        if not np.isfinite(t).all() or (t[1:] < t[:-1]).any():
            raise ValueError("timestamps must be finite and non-decreasing")
        t.flags.writeable = False
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "magnitudes_db", m)
        object.__setattr__(self, "timestamps", t)

    def __len__(self) -> int:
        return len(self.magnitudes_db)

    def __iter__(self):
        """The rows, as sweeps sharing this block's grid and memory."""
        for m, t in zip(self.magnitudes_db, self.timestamps.tolist()):
            yield _row(self.frequencies, m, t)

    def __getitem__(self, index):
        """Row ``index`` as a ``Sweep`` view, or the rows of a slice as a
        ``SweepBlock`` view.  A slice must keep time order, so its step
        must be positive."""
        if isinstance(index, slice):
            if index.step is not None and index.step <= 0:
                raise ValueError("a SweepBlock slice step must be positive")
            view = object.__new__(SweepBlock)
            object.__setattr__(view, "frequencies", self.frequencies)
            object.__setattr__(view, "magnitudes_db", self.magnitudes_db[index])
            object.__setattr__(view, "timestamps", self.timestamps[index])
            return view
        i = operator.index(index)
        return _row(self.frequencies, self.magnitudes_db[i], float(self.timestamps[i]))


def _row(frequencies: np.ndarray, magnitudes: np.ndarray, timestamp: float) -> Sweep:
    """A ``Sweep`` over one row of an already validated block."""
    row = object.__new__(Sweep)
    object.__setattr__(row, "frequencies", frequencies)
    object.__setattr__(row, "magnitudes_db", magnitudes)
    object.__setattr__(row, "timestamp", timestamp)
    return row


def as_block(sweeps) -> SweepBlock:
    """``sweeps`` as one validated block: a ``SweepBlock`` as it is, or a
    sequence of sweeps on one grid stacked into a new block."""
    if isinstance(sweeps, SweepBlock):
        return sweeps
    sweeps = list(sweeps)
    if not sweeps:
        return SweepBlock(np.empty(0), np.empty((0, 0)), ())
    grid = sweeps[0].frequencies
    for i, s in enumerate(sweeps):
        if not (s.frequencies is grid or np.array_equal(s.frequencies, grid)):
            raise ValueError(f"sweep {i} is not on the grid of sweep 0")
    return SweepBlock(
        grid, np.array([s.magnitudes_db for s in sweeps]), [s.timestamp for s in sweeps]
    )
