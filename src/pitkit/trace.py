"""The swept-magnitude trace type shared by the synthesizer and detector.

A ``SweepBlock`` is T analyzer acquisitions on one shared grid,
validated once as a whole; one acquisition is a one-row block.  Slicing
a block gives a ``SweepBlock`` view of its rows, which is not validated
again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SweepBlock:
    """T analyzer acquisitions on one grid: frequencies (N,), dB
    magnitudes (T, N) and timestamps (T,) in time order."""

    frequencies: np.ndarray
    magnitudes_db: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.frequencies, dtype=float)
        m = np.asarray(self.magnitudes_db, dtype=float)
        if f.ndim != 1 or m.ndim != 2 or m.shape[1:] != f.shape:
            raise ValueError(
                f"frequencies must be (N,) and magnitudes (T, N), got {f.shape} and {m.shape}"
            )
        if (f[1:] <= f[:-1]).any():
            raise ValueError("frequencies must be strictly increasing")
        if not np.isfinite(f).all():
            raise ValueError("frequencies must be finite")
        if not np.isfinite(m).all():
            raise ValueError("magnitudes must be finite (no NaN or inf)")
        t = np.asarray(self.timestamps, dtype=float)
        if t.shape != m.shape[:1]:
            raise ValueError(f"timestamps must be ({len(m)},), got {t.shape}")
        if not np.isfinite(t).all() or (t[1:] < t[:-1]).any():
            raise ValueError("timestamps must be finite and non-decreasing")
        for name, a in (("frequencies", f), ("magnitudes_db", m), ("timestamps", t)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.magnitudes_db)

    def __getitem__(self, index: slice) -> SweepBlock:
        """The rows of a slice as a ``SweepBlock`` view.  A slice must keep
        time order, so its step must be positive; any other index is a
        ``TypeError``."""
        if not isinstance(index, slice):
            raise TypeError(f"a SweepBlock is indexed by slices, not {type(index).__name__}")
        if index.step is not None and index.step <= 0:
            raise ValueError("a SweepBlock slice step must be positive")
        view = object.__new__(SweepBlock)
        object.__setattr__(view, "frequencies", self.frequencies)
        object.__setattr__(view, "magnitudes_db", self.magnitudes_db[index])
        object.__setattr__(view, "timestamps", self.timestamps[index])
        return view
