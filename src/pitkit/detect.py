"""Resonance detection on swept magnitude traces.

The detector fits a smooth polynomial baseline to each sweep, takes the
residual, and reports local maxima that clear a fixed dB threshold.
Because the baseline is re-fit every sweep, slow amplitude drift never
accumulates into the detection statistic.

Detection works on blocks and returns columns: ``detect_block`` takes a
(T, N) matrix of sweeps on one shared grid, fits all T baselines
together (one batched solve per clipping pass), and returns a
``Detection``: the residuals, each row's sigma and one flat peak table,
built by array operations over the whole block.  ``detect_stream`` cuts
a sweep train into row views of such blocks, and ``detect_peaks`` is the
one-row case, read out as ``PeakReport``s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .trace import Sweep, as_block

# Most grid points (frames x points per frame) that ``detect_stream``
# hands ``detect_block`` at once: 80 frames on the 51-point grid, 10 on
# the 401-point grid.  The cap bounds the memory each clipping pass
# holds in temporaries.
BLOCK_POINTS = 4096

# Residual sigma is floored so noiseless traces report a finite SNR.
_SIGMA_FLOOR = 1e-12
# Points whose first-pass residual exceeds this many robust sigmas are
# excluded from the second baseline fit, so a real peak does not drag
# the baseline up underneath itself.
_MASK_SIGMA = 2.5
_MASK_PASSES = 8
_MASK_DILATION = 4


# Peak threshold 10x the analyzer noise floor, degree-5 baseline.
@dataclass(frozen=True)
class DetectorConfig:
    baseline_order: int = 5
    peak_threshold: float = 0.02
    min_peak_separation: float = 150e3

    def __post_init__(self) -> None:
        if self.baseline_order < 1:
            raise ValueError("baseline_order must be >= 1")
        if self.peak_threshold <= 0:
            raise ValueError("peak_threshold must be > 0")
        if self.min_peak_separation < 0:
            raise ValueError("min_peak_separation must be >= 0")


@dataclass(frozen=True)
class PeakReport:
    peak_frequency: float
    peak_height: float
    snr: float
    baseline_residual_sigma: float

    def to_dict(self) -> dict:
        return {
            "peak_frequency_hz": self.peak_frequency,
            "peak_height_db": self.peak_height,
            "snr": self.snr,
            "baseline_residual_sigma_db": self.baseline_residual_sigma,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _normalized_grid(frequencies: np.ndarray) -> np.ndarray:
    return (frequencies - frequencies.mean()) / ((frequencies[-1] - frequencies[0]) / 2.0)


def _vandermonde(frequencies: np.ndarray, order: int) -> np.ndarray:
    """Read-only (N, order + 1) powers of the normalized grid, built once
    per (grid, order)."""
    f = np.ascontiguousarray(frequencies, dtype=float)
    if f.ndim != 1:
        raise ValueError("frequencies must be 1-D")
    return _cached_vandermonde(f.tobytes(), order)


@lru_cache(maxsize=32)
def _cached_vandermonde(grid: bytes, order: int) -> np.ndarray:
    f = np.frombuffer(grid)
    if len(f) <= order + 1:
        raise ValueError(f"need more than {order + 1} points for order {order}")
    if len(np.unique(f)) != len(f):
        raise ValueError("degenerate grid: duplicate frequencies")
    v = np.vander(_normalized_grid(f), order + 1, increasing=True)
    v.flags.writeable = False
    return v


def _fit(v: np.ndarray, y: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """Least-squares polynomial values for each row of ``y`` (T, N),
    fitted on the points ``keep`` marks (all points when None).

    Weighted normal equations, one batched solve over the rows, then one
    step of iterative refinement: the normal matrix squares the design's
    condition number, and the refinement step recovers the digits that
    costs on sparsely masked rows.  Every product is a stack of per-row
    products, so a row's result does not depend on the rows beside it."""
    vt = v.T if keep is None else np.swapaxes(keep[:, :, None] * v, 1, 2)
    normal = vt @ v
    coeffs = np.linalg.solve(normal, vt @ y[:, :, None])
    coeffs += np.linalg.solve(normal, vt @ (y[:, :, None] - v @ coeffs))
    return (v @ coeffs)[:, :, 0]


def _row_median(a: np.ndarray) -> np.ndarray:
    """Medians (T, 1) of the rows of ``a``, equal to ``np.median`` without
    its per-call overhead: one partition, and for an even row length the
    mean of the two middle values."""
    half = a.shape[1] // 2
    if a.shape[1] % 2:
        return np.partition(a, half, axis=1)[:, half : half + 1]
    part = np.partition(a, (half - 1, half), axis=1)
    return (part[:, half - 1 : half] + part[:, half : half + 1]) / 2.0


def _median_and_sigma(residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row medians (T, 1) and robust sigmas (T,) from the median
    absolute deviation."""
    med = _row_median(residual)
    return med, 1.4826 * _row_median(np.abs(residual - med))[:, 0]


def _kept_after_dilation(outlier: np.ndarray) -> np.ndarray:
    """Points of each row with no outlier within ``_MASK_DILATION`` points
    either side: the complement of the dilated outlier mask.  One
    cumulative sum over the zero-padded rows counts the outliers in every
    window, exactly, since the counts are integers."""
    t, n = outlier.shape
    d = _MASK_DILATION
    counts = np.zeros((t, n + 2 * d + 1), dtype=np.intp)
    np.cumsum(outlier, axis=1, out=counts[:, d + 1 : n + d + 1])
    counts[:, n + d + 1 :] = counts[:, n + d : n + d + 1]
    return counts[:, 2 * d + 1 :] == counts[:, :n]


def _masked_baseline(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sigma-clipped baselines of the rows of ``y``: fit, drop outlying
    points (the peak and its neighbors on each side), refit, and repeat
    until the mask stops changing.  Clipping keeps a resonance from
    pulling the fit upward underneath itself.

    Each row stops on its own: when its robust sigma reaches the floor,
    when its mask would leave too few points, when its mask is
    unchanged, or after the last pass.  Each pass refits the rows still
    going together; while that is every row, the pass works on the whole
    block and gathers and scatters nothing.

    A fit depends only on its row and its mask, so a row whose new mask
    equals its mask of two passes back would flip between those two
    masks and fits until the last pass.  It stops at once, on the fit
    that last pass would leave.  The first fit is unweighted, and its
    bits can differ from a fit on an all-true mask, so it never closes a
    cycle."""
    base = _fit(v, y)
    keep = np.ones(y.shape, dtype=bool)
    # each row's mask and fit one pass back
    prev_keep = prev_base = None
    rows = None  # the rows still going; None while that is every row
    for p in range(1, _MASK_PASSES + 1):
        residual = y - base if rows is None else y[rows] - base[rows]
        med, sigma = _median_and_sigma(residual)
        # one-sided: resonance signatures are positive bumps, and points
        # below the fit anchor it against running away near the edges
        new_keep = _kept_after_dilation(residual - med >= _MASK_SIGMA * sigma[:, None])
        go = (
            (sigma > _SIGMA_FLOOR)
            & (new_keep.sum(axis=1) > v.shape[1])
            & (new_keep != (keep if rows is None else keep[rows])).any(axis=1)
        )
        if p >= 3:
            back = prev_keep if rows is None else prev_keep[rows]
            cycled = go & (new_keep == back).all(axis=1)
            if cycled.any():
                # an even number of passes after this one ends the cycle on
                # the fit of two passes back, an odd number on the current fit
                if (_MASK_PASSES - p) % 2 == 0:
                    ended = np.flatnonzero(cycled) if rows is None else rows[cycled]
                    base[ended] = prev_base[ended]
                go &= ~cycled
        if rows is None and go.all():
            prev_keep, keep = keep, new_keep
            prev_base, base = base, _fit(v, y, new_keep)
            continue
        rows = np.flatnonzero(go) if rows is None else rows[go]
        if not len(rows):
            break
        new_keep = new_keep[go]
        if prev_keep is None:
            prev_keep, prev_base = np.empty_like(keep), np.empty_like(base)
        prev_keep[rows] = keep[rows]
        prev_base[rows] = base[rows]
        keep[rows] = new_keep
        base[rows] = _fit(v, y[rows], new_keep)
    return base


@dataclass(frozen=True)
class Detection:
    """Detection of a block of T sweeps on one grid, as read-only columns.

    ``residuals`` (T, N) are the masked-baseline residuals and ``sigma``
    (T,) each row's robust residual sigma, floored.  The peak table holds
    P peaks in four (P,) columns: ``row``, vertex ``frequency``, residual
    ``height`` and ``snr`` (height over the row's sigma).  It is sorted
    by row, then by height descending, with ties in grid order, so each
    row's strongest peak comes first."""

    residuals: np.ndarray
    sigma: np.ndarray
    row: np.ndarray
    frequency: np.ndarray
    height: np.ndarray
    snr: np.ndarray

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            column = np.asarray(getattr(self, name)).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def reports(self) -> list[list[PeakReport]]:
        """Each row's peaks as ``PeakReport``s, strongest first."""
        out: list[list[PeakReport]] = [[] for _ in range(len(self.sigma))]
        sigma = self.sigma.tolist()
        for r, f, h, s in zip(
            self.row.tolist(), self.frequency.tolist(), self.height.tolist(), self.snr.tolist()
        ):
            out[r].append(PeakReport(f, h, s, sigma[r]))
        return out


def detect_block(
    frequencies: np.ndarray,
    magnitudes: np.ndarray,
    cfg: DetectorConfig = DetectorConfig(),
) -> Detection:
    """Baseline residuals and peak table of a block of sweeps.

    ``frequencies`` is the grid (N,) that every row of ``magnitudes``
    (T, N, in dB) shares.  Returns the ``Detection`` of the block: the
    (T, N) residuals of the masked baseline fit and the thresholded
    local maxima of each row's residual.

    A point is a peak when it strictly exceeds both neighbors and its
    residual height is at or above the threshold (closed comparison).
    Surviving peaks are pruned to the configured minimum separation,
    strongest first.  The reported frequency is refined below the grid
    step by the vertex of the parabola through the maximum and its two
    neighbors, clamped to half a step either side.  The whole table is
    built by array operations over the block.
    """
    v = _vandermonde(frequencies, cfg.baseline_order)
    f = np.asarray(frequencies, dtype=float)
    y = np.asarray(magnitudes, dtype=float)
    if y.ndim != 2 or y.shape[1] != len(f):
        raise ValueError(f"magnitudes must be (T, {len(f)}), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("magnitudes must be finite")
    residual = y - _masked_baseline(v, y) if len(y) else np.empty(y.shape)
    return _peak_table(f, residual, cfg)


def _peak_table(f: np.ndarray, residual: np.ndarray, cfg: DetectorConfig) -> Detection:
    """The ``Detection`` of residuals (T, N) on the grid ``f``."""
    sigma = np.maximum(_median_and_sigma(residual)[1], _SIGMA_FLOOR)
    inner = residual[:, 1:-1]
    row, bin = np.nonzero(
        (inner > residual[:, :-2]) & (inner > residual[:, 2:]) & (inner >= cfg.peak_threshold)
    )
    bin += 1
    height = residual[row, bin]
    # np.nonzero lists the candidates by row, then in grid order
    if len(row) > 1 and (row[1:] == row[:-1]).any():
        row, bin, height = _strongest_first(f, row, bin, height, cfg.min_peak_separation)
    frequency = _vertex(f, bin, residual[row, bin - 1], height, residual[row, bin + 1])
    return Detection(residual, sigma, row, frequency, height, height / sigma[row])


def _vertex(
    f: np.ndarray, bin: np.ndarray, left: np.ndarray, mid: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Sub-grid peak positions: the vertex of the parabola through the
    residuals ``left``, ``mid`` and ``right`` at grid points ``bin`` - 1,
    ``bin`` and ``bin`` + 1, clamped to half a step either side; the grid
    point itself where the parabola does not open downward."""
    denom = left - 2.0 * mid + right
    frequency = f[bin]
    bent = denom < 0.0
    if bent.any():
        b = bin[bent]
        shift = np.clip(0.5 * (left[bent] - right[bent]) / denom[bent], -0.5, 0.5)
        frequency[bent] = f[b] + shift * (f[b + 1] - f[b])
    return frequency


def _strongest_first(
    f: np.ndarray, row: np.ndarray, bin: np.ndarray, height: np.ndarray, separation: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates (listed by row, then in grid order) sorted by row, then
    by height descending with ties in grid order, less each one closer
    than ``separation`` to a stronger kept peak of its row.

    The grid is increasing, so a row whose neighboring candidates are all
    ``separation`` apart has every pair that far apart and keeps all its
    candidates; only the other rows are pruned, greedily, strongest
    first."""
    close = (row[1:] == row[:-1]) & (np.abs(f[bin[1:]] - f[bin[:-1]]) < separation)
    pruned = np.unique(row[1:][close])
    order = np.lexsort((-height, row))
    row, bin, height = row[order], bin[order], height[order]
    if not len(pruned):
        return row, bin, height
    kept = np.ones(len(row), dtype=bool)
    starts = np.searchsorted(row, pruned)
    ends = np.searchsorted(row, pruned, side="right")
    grid = f.tolist()
    for start, end in zip(starts.tolist(), ends.tolist()):
        held: list[float] = []
        for pos, i in enumerate(bin[start:end].tolist(), start):
            if all(abs(grid[i] - g) >= separation for g in held):
                held.append(grid[i])
            else:
                kept[pos] = False
    return row[kept], bin[kept], height[kept]


def detect_stream(sweeps, cfg: DetectorConfig = DetectorConfig()):
    """Yield (chunk, detection) for a sweep train, chunk by chunk in order.

    ``sweeps`` is a ``SweepBlock`` or sweeps on one grid (``as_block``).
    The block is cut into ``SweepBlock`` row views of at most
    ``BLOCK_POINTS`` grid points, and each goes straight to
    ``detect_block``.
    """
    block = as_block(sweeps)
    rows = max(1, BLOCK_POINTS // max(1, len(block.frequencies)))
    for i in range(0, len(block), rows):
        chunk = block[i : i + rows]
        yield chunk, detect_block(chunk.frequencies, chunk.magnitudes_db, cfg)


def detect_peaks(sweep: Sweep, cfg: DetectorConfig = DetectorConfig()) -> list[PeakReport]:
    """Peak reports of one sweep: ``detect_block`` on a one-row block."""
    return detect_block(sweep.frequencies, sweep.magnitudes_db[None, :], cfg).reports()[0]


def compute_snr(traces_with, traces_without, at_frequency: float) -> float:
    """(mean with-sensor - mean without-sensor) / std without-sensor,
    evaluated on the dB magnitudes at the grid point nearest
    ``at_frequency``.  Standard deviation is the population form.

    Each set is a ``SweepBlock`` or a sequence of sweeps on one grid; the
    grid of the with-sensor set locates the point."""
    with_block, without_block = as_block(traces_with), as_block(traces_without)
    if len(with_block) < 2 or len(without_block) < 2:
        raise ValueError("need at least 2 traces in each set")
    idx = int(np.argmin(np.abs(with_block.frequencies - at_frequency)))
    vals_with = with_block.magnitudes_db[:, idx]
    vals_without = without_block.magnitudes_db[:, idx]
    std = float(vals_without.std())
    if std == 0.0:
        diff = float(vals_with.mean() - vals_without.mean())
        return math.inf if diff > 0 else (-math.inf if diff < 0 else 0.0)
    return float((vals_with.mean() - vals_without.mean()) / std)
