"""Resonance detection on swept magnitude traces.

The detector fits a smooth polynomial baseline to each sweep, takes the
residual, and reports local maxima that clear a fixed dB threshold.
Because the baseline is re-fit every sweep, slow amplitude drift never
accumulates into the detection statistic.

Detection works on blocks: ``detect_block`` takes a (T, N) matrix of
sweeps on one shared grid and fits all T baselines together, one batched
solve per clipping pass.  ``detect_stream`` cuts a sweep train into row
views of such blocks, and ``detect_peaks`` is the one-row case.
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


def _masked_baseline(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sigma-clipped baselines of the rows of ``y``: fit, drop outlying
    points (the peak and its neighbors on each side), refit, and repeat
    until the mask stops changing.  Clipping keeps a resonance from
    pulling the fit upward underneath itself.

    Each row stops on its own: when its robust sigma reaches the floor,
    when its mask would leave too few points, when its mask is
    unchanged, or after the last pass.  Each pass refits the rows still
    going together.

    A fit depends only on its row and its mask, so a row whose new mask
    equals its mask of two passes back would flip between those two
    masks and fits until the last pass.  It stops at once, on the fit
    that last pass would leave.  The first fit is unweighted, and its
    bits can differ from a fit on an all-true mask, so it never closes a
    cycle."""
    base = _fit(v, y)
    keep = np.ones(y.shape, dtype=bool)
    # each row's mask and fit one pass back
    prev_keep = np.empty_like(keep)
    prev_base = np.empty_like(base)
    rows = np.arange(len(y))
    for p in range(1, _MASK_PASSES + 1):
        residual = y[rows] - base[rows]
        med, sigma = _median_and_sigma(residual)
        # one-sided: resonance signatures are positive bumps, and points
        # below the fit anchor it against running away near the edges
        outlier = residual - med >= _MASK_SIGMA * sigma[:, None]
        dilated = outlier.copy()
        for shift in range(1, _MASK_DILATION + 1):
            dilated[:, :-shift] |= outlier[:, shift:]
            dilated[:, shift:] |= outlier[:, :-shift]
        new_keep = ~dilated
        go = (
            (sigma > _SIGMA_FLOOR)
            & (new_keep.sum(axis=1) > v.shape[1])
            & (new_keep != keep[rows]).any(axis=1)
        )
        rows, new_keep = rows[go], new_keep[go]
        if p >= 3:
            cycled = (new_keep == prev_keep[rows]).all(axis=1)
            # an even number of passes after this one ends the cycle on
            # the fit of two passes back, an odd number on the current fit
            if (_MASK_PASSES - p) % 2 == 0:
                base[rows[cycled]] = prev_base[rows[cycled]]
            rows, new_keep = rows[~cycled], new_keep[~cycled]
        if not len(rows):
            break
        prev_keep[rows] = keep[rows]
        prev_base[rows] = base[rows]
        keep[rows] = new_keep
        base[rows] = _fit(v, y[rows], new_keep)
    return base


def detect_block(
    frequencies: np.ndarray,
    magnitudes: np.ndarray,
    cfg: DetectorConfig = DetectorConfig(),
) -> tuple[np.ndarray, list[list[PeakReport]]]:
    """Baseline residuals and peak reports for a block of sweeps.

    ``frequencies`` is the grid (N,) that every row of ``magnitudes``
    (T, N, in dB) shares.  Returns the (T, N) residuals of the masked
    baseline fit and, per row, the thresholded local maxima of that
    residual.

    A point is a peak when it strictly exceeds both neighbors and its
    residual height is at or above the threshold (closed comparison).
    Surviving peaks are pruned to the configured minimum separation,
    strongest first, and returned sorted by height descending.  The
    reported frequency is refined below the grid step by the vertex of
    the parabola through the maximum and its two neighbors.
    """
    v = _vandermonde(frequencies, cfg.baseline_order)
    f = np.asarray(frequencies, dtype=float)
    y = np.asarray(magnitudes, dtype=float)
    if y.ndim != 2 or y.shape[1] != len(f):
        raise ValueError(f"magnitudes must be (T, {len(f)}), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("magnitudes must be finite")
    if not len(y):
        return np.empty(y.shape), []

    residual = y - _masked_baseline(v, y)
    sigma = np.maximum(_median_and_sigma(residual)[1], _SIGMA_FLOOR)
    inner = residual[:, 1:-1]
    candidate = (
        (inner > residual[:, :-2])
        & (inner > residual[:, 2:])
        & (inner >= cfg.peak_threshold)
    )
    peaks = [
        _row_peaks(f, r, float(s), np.flatnonzero(c) + 1, cfg)
        for r, s, c in zip(residual, sigma, candidate)
    ]
    return residual, peaks


def _row_peaks(
    frequencies: np.ndarray,
    residual: np.ndarray,
    sigma: float,
    candidates: np.ndarray,
    cfg: DetectorConfig,
) -> list[PeakReport]:
    kept: list[int] = []
    for i in candidates[np.argsort(-residual[candidates], kind="stable")].tolist():
        if all(
            abs(frequencies[i] - frequencies[j]) >= cfg.min_peak_separation
            for j in kept
        ):
            kept.append(i)
    return [
        PeakReport(
            peak_frequency=_vertex_frequency(frequencies, residual, i),
            peak_height=float(residual[i]),
            snr=float(residual[i] / sigma),
            baseline_residual_sigma=sigma,
        )
        for i in kept
    ]


def detect_stream(sweeps, cfg: DetectorConfig = DetectorConfig()):
    """Yield (sweep, residual, peaks) for each sweep of a train, in order.

    ``sweeps`` is a ``SweepBlock`` or sweeps on one grid (``as_block``).
    The block is cut into row views of at most ``BLOCK_POINTS`` grid
    points, and each goes straight to ``detect_block``.
    """
    block = as_block(sweeps)
    rows = max(1, BLOCK_POINTS // max(1, len(block.frequencies)))
    for i in range(0, len(block), rows):
        # a fresh chunk view per block: zip stops on its last row
        chunk = block[i : i + rows]
        residuals, peaks = detect_block(chunk.frequencies, chunk.magnitudes_db, cfg)
        yield from zip(chunk, residuals, peaks)


def detect_peaks(sweep: Sweep, cfg: DetectorConfig = DetectorConfig()) -> list[PeakReport]:
    """Peak reports of one sweep: ``detect_block`` on a one-row block."""
    return detect_block(sweep.frequencies, sweep.magnitudes_db[None, :], cfg)[1][0]


def _vertex_frequency(frequencies: np.ndarray, residual: np.ndarray, i: int) -> float:
    """Sub-grid peak position: vertex of the parabola through the local
    maximum and its neighbors, clamped to half a step either side."""
    denom = residual[i - 1] - 2.0 * residual[i] + residual[i + 1]
    if denom >= 0.0:
        return float(frequencies[i])
    shift = 0.5 * (residual[i - 1] - residual[i + 1]) / denom
    shift = min(max(shift, -0.5), 0.5)
    step = frequencies[i + 1] - frequencies[i]
    return float(frequencies[i] + shift * step)


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
