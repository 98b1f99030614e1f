"""Swept-magnitude trace type shared by the synthesizer and detector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sweep:
    """One analyzer acquisition: dB magnitude per grid frequency."""

    frequencies: np.ndarray
    magnitudes_db: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        f = np.asarray(self.frequencies, dtype=float)
        m = np.asarray(self.magnitudes_db, dtype=float)
        if f.ndim != 1 or m.shape != f.shape:
            raise ValueError("frequencies and magnitudes must be 1-D, equal length")
        if len(f) and np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if not np.all(np.isfinite(f)):
            raise ValueError("frequencies must be finite")
        if not np.all(np.isfinite(m)):
            raise ValueError("magnitudes must be finite (no NaN or inf)")
        f.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "magnitudes_db", m)

    def nearest_index(self, frequency: float) -> int:
        return int(np.argmin(np.abs(self.frequencies - frequency)))
