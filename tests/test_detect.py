"""Baseline fitting, peak detection and SNR statistics."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitkit import cli, defaults, detect
from pitkit.decode import PROFILE_PRESETS, decode_stream
from pitkit.detect import (
    BLOCK_POINTS,
    DetectorConfig,
    _peak_table,
    _row_median,
    _vertex,
    compute_snr,
    detect_block,
    detect_stream,
)
from pitkit.circuit import CoupledPair
from pitkit.synth import (
    DisturbanceModel,
    SweepConfig,
    scripted_session,
    sweep_to_csv,
    synthesize_block,
)
from pitkit.trace import SweepBlock

GRID = 27e6 + 60e3 * np.arange(51)


def gaussian_peak(center, height, width=120e3):
    return height * np.exp(-0.5 * ((GRID - center) / width) ** 2)


def sloped_background():
    """A gentle cubic: representative static offset, exactly removable."""
    x = (GRID - GRID.mean()) / 1.5e6
    return -52.0 + 0.8 * x + 0.3 * x**2 - 0.1 * x**3


def fit_baseline(frequencies, y, order):
    """The unmasked least-squares baseline of one sweep, the first fit of
    ``_masked_baseline``."""
    return detect._fit(detect._vandermonde(frequencies, order), y[None])[0]


def detect_one(y):
    """The ``Detection`` of one sweep on ``GRID``: a one-row block."""
    return detect_block(GRID, y[None, :])


def peak_rows(detection):
    """Each row's peaks as (frequency, height, snr, sigma) tuples,
    strongest first, read from the peak table."""
    rows = [[] for _ in range(len(detection.sigma))]
    sigma = detection.sigma.tolist()
    for r, f, h, snr in zip(
        detection.row.tolist(),
        detection.frequency.tolist(),
        detection.height.tolist(),
        detection.snr.tolist(),
    ):
        rows[r].append((f, h, snr, sigma[r]))
    return rows


class TestFitBaseline:
    def test_exact_polynomial_leaves_zero_residual(self):
        x = (GRID - GRID.mean()) / 1.5e6
        y = -50.0 + 1.2 * x - 0.7 * x**2 + 0.05 * x**5
        residual = y - fit_baseline(GRID, y, 5)
        assert np.max(np.abs(residual)) < 1e-9

    def test_flat_trace_recovered_exactly(self):
        assert fit_baseline(GRID, np.full(51, -55.0), 5) == pytest.approx(np.full(51, -55.0))

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            fit_baseline(GRID[:5], np.zeros(5), 5)

    @given(order=st.integers(1, 5), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_residual_orthogonal_to_polynomials(self, order, seed):
        """Adding an in-span polynomial of degree <= order does not change
        the fit residual."""
        rng = np.random.default_rng(seed)
        y = rng.normal(-55.0, 0.01, size=51)
        x = (GRID - GRID.mean()) / 1.5e6
        extra = np.polynomial.polynomial.polyval(x, rng.normal(0, 1, order + 1))
        r1 = y - fit_baseline(GRID, y, order)
        r2 = (y + extra) - fit_baseline(GRID, y + extra, order)
        assert np.max(np.abs(r1 - r2)) < 1e-9


class TestDetectPeaks:
    def test_single_narrow_peak(self):
        y = sloped_background() + gaussian_peak(28.5e6, 0.1)
        found = detect_one(y)
        assert len(found.height) == 1
        assert abs(found.frequency[0] - 28.5e6) < 60e3
        assert found.height[0] == pytest.approx(0.1, rel=0.2)

    def test_masked_refit_recovers_most_of_the_height(self):
        """The iterative masked refit keeps the fit from absorbing a
        narrow peak: at least 80% of the injected height survives."""
        y = sloped_background() + gaussian_peak(28.5e6, 0.1)
        assert detect_one(y).height[0] >= 0.08

    def test_flat_trace_yields_nothing(self):
        assert len(detect_one(sloped_background()).height) == 0

    def test_threshold_is_closed(self):
        """A 3-point triangle of exact threshold height is reported."""
        y = np.full(51, -55.0)
        y[25] += 0.02
        y[24] += 0.01
        y[26] += 0.01
        found = detect_one(y)
        assert len(found.height) == 1
        assert found.height[0] >= 0.02

    def test_subthreshold_peak_rejected(self):
        rng = np.random.default_rng(0)
        y = sloped_background() + rng.normal(0, 0.002, 51)
        y += gaussian_peak(28.5e6, 0.012)
        assert len(detect_one(y).height) == 0

    def test_two_peaks_sorted_by_height(self):
        y = sloped_background()
        y += gaussian_peak(28.9e6, 0.06) + gaussian_peak(29.3e6, 0.1)
        found = detect_one(y)
        assert len(found.height) == 2
        assert found.height[0] > found.height[1]
        assert abs(found.frequency[0] - 29.3e6) < 60e3
        assert abs(found.frequency[1] - 28.9e6) < 60e3

    def test_minimum_separation_prunes_weaker_neighbor(self):
        y = sloped_background()
        y += gaussian_peak(28.90e6, 0.1) + gaussian_peak(29.02e6, 0.06)
        found = detect_one(y)
        assert len(found.height) == 1
        assert abs(found.frequency[0] - 28.90e6) < 60e3

    def test_vertex_refinement_beats_the_grid(self):
        """An off-grid peak center is recovered to better than half a
        step by the parabolic vertex."""
        center = 28.513e6
        y = sloped_background() + gaussian_peak(center, 0.1)
        assert abs(detect_one(y).frequency[0] - center) < 30e3

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_drift_invariance(self, seed):
        """Any degree <= 5 polynomial added to the trace leaves the peak
        location unchanged and the height nearly unchanged."""
        rng = np.random.default_rng(seed)
        y = sloped_background() + gaussian_peak(28.74e6, 0.08)
        x = (GRID - GRID.mean()) / 1.5e6
        drift = np.polynomial.polynomial.polyval(x, rng.normal(0, 0.5, 6))
        before = detect_one(y)
        after = detect_one(y + drift)
        assert len(before.height) == len(after.height) == 1
        assert after.frequency[0] == pytest.approx(before.frequency[0], abs=1.0)
        assert after.height[0] == pytest.approx(before.height[0], rel=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(baseline_order=0)
        with pytest.raises(ValueError):
            DetectorConfig(peak_threshold=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(min_peak_separation=-1.0)

    @pytest.mark.parametrize("field", ["peak_threshold", "min_peak_separation"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite(self, field, value):
        """NaN fails every comparison, so it must not pass the sign check."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            DetectorConfig(**{field: value})

    def test_report_json_keys(self, tmp_path, capsys):
        """``pitkit detect`` writes one JSON line per peak, strongest
        first, with the peak-table columns and the row sigma, in this key
        order."""
        y = sloped_background() + gaussian_peak(28.5e6, 0.1) + gaussian_peak(29.3e6, 0.05)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(SweepBlock(GRID, y[None, :], (0.0,)), path)
        assert cli.main(["detect", str(path)]) == 0
        payloads = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        found = detect_one(y)
        assert [list(p) for p in payloads] == [
            ["peak_frequency_hz", "peak_height_db", "snr", "baseline_residual_sigma_db"]
        ] * 2
        assert [tuple(p.values()) for p in payloads] == peak_rows(found)[0]


class TestComputeSnr:
    """On the two 1-D columns of one grid point, one value per trace."""

    def test_exact_snr_ten(self):
        """Mean gap 0.02 dB over population std 0.002 dB is SNR 10."""
        with_sensor = np.array([-54.98, -54.98])
        without = np.array([-55.002, -54.998])
        assert compute_snr(with_sensor, without) == pytest.approx(10.0)

    def test_uses_population_std(self):
        without = np.array([-55.003, -54.997])
        with_sensor = np.array([-54.97, -54.97])
        # population std of {-55.003, -54.997} is exactly 0.003
        assert compute_snr(with_sensor, without) == pytest.approx(0.03 / 0.003)

    def test_zero_variance_returns_inf(self):
        with_sensor = np.array([-54.9, -54.9])
        without = np.array([-55.0, -55.0])
        assert compute_snr(with_sensor, without) == np.inf

    def test_requires_two_traces_each(self):
        one = np.array([-55.0])
        two = np.array([-55.0, -55.0])
        with pytest.raises(ValueError):
            compute_snr(one, two)
        with pytest.raises(ValueError):
            compute_snr(two, one)


# ---------------------------------------------------------------------------
# block path


def reference_residual(frequencies, magnitudes, order):
    """Oracle: the sigma-clipped baseline one sweep at a time, with
    ``polyfit`` on the kept points each pass (SVD least squares)."""
    poly = np.polynomial.polynomial
    x = (frequencies - frequencies.mean()) / ((frequencies[-1] - frequencies[0]) / 2.0)
    y = magnitudes
    base = poly.polyval(x, poly.polyfit(x, y, order))
    keep = np.ones(len(y), dtype=bool)
    for _ in range(8):
        residual = y - base
        med = np.median(residual)
        sigma = 1.4826 * float(np.median(np.abs(residual - med)))
        if sigma <= 1e-12:
            break
        outlier = residual - med >= 2.5 * sigma
        dilated = outlier.copy()
        for shift in range(1, 5):
            dilated[:-shift] |= outlier[shift:]
            dilated[shift:] |= outlier[:-shift]
        if dilated.size - dilated.sum() <= order + 1 or np.array_equal(~dilated, keep):
            break
        keep = ~dilated
        base = poly.polyval(x, poly.polyfit(x[keep], y[keep], order))
    return y - base


def reference_peaks(frequencies, residual, cfg):
    """Oracle: (index, snr) of thresholded, separation-pruned local maxima,
    strongest first."""
    med = np.median(residual)
    sigma = max(1.4826 * float(np.median(np.abs(residual - med))), 1e-12)
    r = residual
    candidates = [
        i
        for i in range(1, len(r) - 1)
        if r[i] > r[i - 1] and r[i] > r[i + 1] and r[i] >= cfg.peak_threshold
    ]
    candidates.sort(key=lambda i: r[i], reverse=True)
    kept = []
    for i in candidates:
        if all(abs(frequencies[i] - frequencies[j]) >= cfg.min_peak_separation for j in kept):
            kept.append(i)
    return [(i, r[i] / sigma) for i in kept]


def peak_indices(residual_row, peaks):
    """Grid index of each report: its height is the residual there."""
    return [int(np.flatnonzero(residual_row == height)[0]) for _, height, _, _ in peaks]


@st.composite
def blocks(draw, max_rows=5):
    """A random grid (10-401 points), a detector order 1-6 and up to
    ``max_rows`` sweeps of polynomial background, bumps and noise."""
    n = draw(st.integers(10, 401))
    start = draw(st.floats(1e6, 50e6))
    step = draw(st.floats(1e3, 200e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frequencies = start + step * (np.arange(n) + rng.uniform(-0.3, 0.3, n))
    order = draw(st.integers(1, 6))
    rows = draw(st.integers(0, max_rows))
    x = np.linspace(-1.0, 1.0, n)
    noise = draw(st.floats(1e-4, 0.01))
    magnitudes = np.empty((rows, n))
    for t in range(rows):
        y = np.polynomial.polynomial.polyval(x, rng.normal(0.0, 0.5, 4)) - 55.0
        for _ in range(draw(st.integers(0, 3))):
            center = rng.uniform(-1.0, 1.0)
            width = rng.uniform(2.0, 8.0) / n
            y += rng.uniform(0.0, 0.3) * np.exp(-0.5 * ((x - center) / width) ** 2)
        magnitudes[t] = y + rng.normal(0.0, noise, n)
    return frequencies, magnitudes, DetectorConfig(baseline_order=order)


# Reference: the per-row peak picker the vectorised peak table replaced,
# kept verbatim (names prefixed), applied to each row of a Detection's
# residuals and sigmas.
def reference_row_peaks(
    frequencies: np.ndarray,
    residual: np.ndarray,
    sigma: float,
    candidates: np.ndarray,
    cfg: DetectorConfig,
) -> list[tuple]:
    kept: list[int] = []
    for i in candidates[np.argsort(-residual[candidates], kind="stable")].tolist():
        if all(
            abs(frequencies[i] - frequencies[j]) >= cfg.min_peak_separation
            for j in kept
        ):
            kept.append(i)
    return [
        (
            reference_vertex_frequency(frequencies, residual, i),
            float(residual[i]),
            float(residual[i] / sigma),
            sigma,
        )
        for i in kept
    ]


def reference_vertex_frequency(frequencies: np.ndarray, residual: np.ndarray, i: int) -> float:
    """Sub-grid peak position: vertex of the parabola through the local
    maximum and its neighbors, clamped to half a step either side."""
    denom = residual[i - 1] - 2.0 * residual[i] + residual[i + 1]
    if denom >= 0.0:
        return float(frequencies[i])
    shift = 0.5 * (residual[i - 1] - residual[i + 1]) / denom
    shift = min(max(shift, -0.5), 0.5)
    step = frequencies[i + 1] - frequencies[i]
    return float(frequencies[i] + shift * step)


def reference_reports(f, detection, cfg):
    residual = detection.residuals
    inner = residual[:, 1:-1]
    candidate = (
        (inner > residual[:, :-2])
        & (inner > residual[:, 2:])
        & (inner >= cfg.peak_threshold)
    )
    return [
        reference_row_peaks(f, r, float(s), np.flatnonzero(c) + 1, cfg)
        for r, s, c in zip(residual, detection.sigma, candidate)
    ]


def report_bits(rows):
    """Every float of every peak, as its hex string."""
    return [[tuple(float(x).hex() for x in peak) for peak in row] for row in rows]


@st.composite
def residual_tables(draw):
    """(grid, residuals, config): rows of residuals drawn from a few
    levels, so rows hold many candidates and equal heights, on a grid
    with jittered steps, with a minimum separation of 0, under one step,
    over one step or over several."""
    n = draw(st.integers(3, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.floats(1e3, 200e3))
    f = 27e6 + step * (np.arange(n) + rng.uniform(-0.3, 0.3, n))
    levels = draw(st.integers(2, 8))
    residual = rng.integers(0, levels, (draw(st.integers(0, 6)), n)) * draw(
        st.sampled_from([0.01, 0.013, 0.25])
    )
    if draw(st.booleans()):
        residual = residual + rng.normal(0.0, 0.002, residual.shape)
    separation = draw(st.sampled_from([0.0, 0.5, 1.5, 3.0, 10.0])) * step
    cfg = DetectorConfig(
        peak_threshold=draw(st.sampled_from([0.001, 0.01, 0.02, 0.05])),
        min_peak_separation=separation,
    )
    return f, residual, cfg


class TestPeakTable:
    @given(table=residual_tables())
    @settings(max_examples=200, deadline=None)
    def test_reports_equal_row_peaks_reference(self, table):
        f, residual, cfg = table
        detection = _peak_table(f, residual, cfg)
        assert report_bits(peak_rows(detection)) == report_bits(
            reference_reports(f, detection, cfg)
        )

    @given(block=blocks(max_rows=5), separation=st.sampled_from([None, 0.0, 200e3, 1e6]))
    @settings(max_examples=60, deadline=None)
    def test_detect_block_equals_row_peaks_reference(self, block, separation):
        f, y, cfg = block
        if separation is not None:
            cfg = DetectorConfig(cfg.baseline_order, cfg.peak_threshold, separation)
        detection = detect_block(f, y, cfg)
        assert report_bits(peak_rows(detection)) == report_bits(
            reference_reports(f, detection, cfg)
        )

    @given(
        values=st.lists(
            st.tuples(*[st.sampled_from([0.0, 0.02, 0.03, 0.05]) | st.floats(-1.0, 1.0)] * 3),
            max_size=20,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_vertex_equals_reference_including_flat_and_valley(self, values, seed):
        """Any three residuals, peaked or not: where the parabola does not
        open downward (denominator >= 0) both give the grid point."""
        rng = np.random.default_rng(seed)
        f = 27e6 + 60e3 * (np.arange(len(values) + 2) + rng.uniform(-0.3, 0.3, len(values) + 2))
        bins = np.arange(1, len(values) + 1)
        left, mid, right = (np.array([v[k] for v in values], dtype=float) for k in range(3))
        got = _vertex(f, bins, left, mid, right)
        for i, (l, m, r) in zip(bins.tolist(), values):
            residual = np.zeros(len(f))
            residual[i - 1 : i + 2] = (l, m, r)
            assert got[i - 1].hex() == reference_vertex_frequency(f, residual, i).hex()

    def test_columns_are_sorted_and_read_only(self):
        y = sloped_background() + gaussian_peak(28.0e6, 0.05) + gaussian_peak(29.0e6, 0.1)
        detection = detect_block(GRID, np.stack([y, sloped_background(), y]))
        assert detection.row.tolist() == [0, 0, 2, 2]
        assert detection.height[0] > detection.height[1]
        assert np.array_equal(detection.snr, detection.height / detection.sigma[detection.row])
        for name in ("residuals", "sigma", "row", "frequency", "height", "snr"):
            assert not getattr(detection, name).flags.writeable


class TestDetectBlock:
    @given(block=blocks())
    @settings(max_examples=60, deadline=None)
    def test_block_equals_rows(self, block):
        """Detecting a block gives each row exactly what detecting it alone
        does, so block boundaries never change a decoded stream."""
        f, y, cfg = block
        detection = detect_block(f, y, cfg)
        residual, peaks = detection.residuals, peak_rows(detection)
        assert residual.shape == y.shape and len(peaks) == len(y)
        for t in range(len(y)):
            row = detect_block(f, y[t : t + 1], cfg)
            row_residual, (row_peaks,) = row.residuals, peak_rows(row)
            assert np.array_equal(residual[t], row_residual[0])
            assert peaks[t] == row_peaks

    @given(block=blocks(max_rows=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_masked_baseline(self, block):
        """Residuals within 1e-9 dB of the per-sweep polyfit oracle, the
        same peak indices, and SNR within 1e-6 relative.

        Where clipping leaves a high-order fit few points near one end,
        its extrapolation runs to tens of dB and both solvers carry a
        relative error near 1e-11 (the oracle's is the larger against a
        40-digit solution), so the bound also has a 1e-10 relative part."""
        f, y, cfg = block
        detection = detect_block(f, y, cfg)
        residual, peaks = detection.residuals, peak_rows(detection)
        for t in range(len(y)):
            expected = reference_residual(f, y[t], cfg.baseline_order)
            np.testing.assert_allclose(residual[t], expected, rtol=1e-10, atol=1e-9)
            oracle = reference_peaks(f, expected, cfg)
            assert peak_indices(residual[t], peaks[t]) == [i for i, _ in oracle]
            for (_, _, got, _), (_, snr) in zip(peaks[t], oracle):
                assert got == pytest.approx(snr, rel=1e-6)

    @given(
        rows=st.integers(1, 4),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_median_is_numpy_median(self, rows, n, seed, ties):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 1.0, (rows, n))
        if ties:
            a = np.round(a, 1)
        expected = np.median(a, axis=1, keepdims=True)
        assert np.array_equal(_row_median(a), expected)

    def test_empty_block(self):
        detection = detect_block(GRID, np.empty((0, 51)))
        assert detection.residuals.shape == (0, 51) and len(detection.row) == 0

    def test_one_row_block(self):
        """One sweep is a one-row block: one residual row, one sigma, and
        its peaks all in row 0."""
        y = sloped_background() + gaussian_peak(28.5e6, 0.1)
        detection = detect_one(y)
        assert detection.residuals.shape == (1, 51) and detection.sigma.shape == (1,)
        assert detection.row.tolist() == [0]

    def test_too_few_points_raise(self):
        with pytest.raises(ValueError, match="need more than"):
            detect_block(GRID[:6], np.zeros((2, 6)))
        with pytest.raises(ValueError, match="need more than"):
            detect_block(GRID[:6], np.zeros((0, 6)))

    def test_duplicate_frequencies_raise(self):
        grid = GRID.copy()
        grid[10] = grid[9]
        with pytest.raises(ValueError, match="duplicate"):
            detect_block(grid, np.zeros((2, 51)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            detect_block(GRID, np.zeros((2, 50)))
        with pytest.raises(ValueError):
            detect_block(GRID, np.zeros(51))

    def test_non_finite_magnitudes_raise(self):
        y = np.full((2, 51), -55.0)
        y[1, 7] = np.inf
        with pytest.raises(ValueError, match="finite"):
            detect_block(GRID, y)


def loop_masked_baseline(v, y):
    """The clipping loop before it stopped rows on a two-mask cycle,
    verbatim: every row refits until its mask settles or the pass cap."""
    base = detect._fit(v, y)
    keep = np.ones(y.shape, dtype=bool)
    rows = np.arange(len(y))
    for _ in range(detect._MASK_PASSES):
        residual = y[rows] - base[rows]
        med, sigma = detect._median_and_sigma(residual)
        outlier = residual - med >= detect._MASK_SIGMA * sigma[:, None]
        dilated = outlier.copy()
        for shift in range(1, detect._MASK_DILATION + 1):
            dilated[:, :-shift] |= outlier[:, shift:]
            dilated[:, shift:] |= outlier[:, :-shift]
        new_keep = ~dilated
        go = (
            (sigma > detect._SIGMA_FLOOR)
            & (new_keep.sum(axis=1) > v.shape[1])
            & (new_keep != keep[rows]).any(axis=1)
        )
        rows = rows[go]
        if not len(rows):
            break
        keep[rows] = new_keep[go]
        base[rows] = detect._fit(v, y[rows], keep[rows])
    return base


def ring_sweeps(couplings, noise_sigma=0.0, seed=0):
    """Sweeps of a 7-turn ring at 28 MHz on the 51-point grid, one row
    per coupling."""
    reader, sensor = defaults.reader_coil(), defaults.ring_coil(28.0e6, 7)
    return synthesize_block(
        SweepConfig(seed=seed),
        [CoupledPair(reader, sensor, k) for k in couplings],
        defaults.bridge_config(),
        DisturbanceModel(noise_sigma=noise_sigma),
        [0.2 * i for i in range(len(couplings))],
    ).magnitudes_db


@st.composite
def baseline_blocks(draw):
    """(Vandermonde, rows) of noisy, noise-free or peaked sweeps: random
    ones from ``blocks`` with or without their noise, plain noise, or
    ring sweeps."""
    kind = draw(st.sampled_from(["noisy", "noise-free", "noise only", "ring", "noisy ring"]))
    if kind.endswith("ring"):
        couplings = draw(st.lists(st.floats(1e-4, 3e-3), min_size=1, max_size=6))
        noise = 0.002 if kind == "noisy ring" else 0.0
        y = ring_sweeps(couplings, noise, draw(st.integers(0, 2**32 - 1)))
        return detect._vandermonde(SweepConfig().frequencies(), 5), y
    f, y, cfg = draw(blocks(max_rows=6))
    if kind == "noise only":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        y = -55.0 + rng.normal(0.0, 0.002, y.shape)
    if kind == "noise-free":
        n = len(f)
        x = np.linspace(-1.0, 1.0, n)
        y = np.polynomial.polynomial.polyval(x, [-55.0, 0.3, -0.2]) + np.zeros((len(y), n))
        for row in y:
            center = draw(st.floats(-1.0, 1.0))
            row += draw(st.floats(0.0, 0.3)) * np.exp(-0.5 * ((x - center) / (5.0 / n)) ** 2)
    return detect._vandermonde(f, cfg.baseline_order), y


class TestMaskedBaseline:
    @given(block=baseline_blocks())
    @settings(max_examples=80, deadline=None)
    def test_same_bytes_as_the_refitting_loop(self, block):
        v, y = block
        assert detect._masked_baseline(v, y).tobytes() == loop_masked_baseline(v, y).tobytes()

    def test_cycle_through_the_all_true_mask_ends_on_a_weighted_fit(self):
        """Noise on a smooth background can flip between a clipped mask
        and the all-true one: here 378, 387, 378, ... of 387 points.  On
        this grid the first, unweighted fit differs in its bits from the
        weighted all-true fit the loop ends on, so it must not close the
        cycle."""
        rng = np.random.default_rng(1133)
        n, order = int(rng.integers(10, 402)), int(rng.integers(1, 7))
        f = 1e6 + rng.uniform(0, 49e6)
        f += rng.uniform(1e3, 200e3) * (np.arange(n) + rng.uniform(-0.3, 0.3, n))
        x = np.linspace(-1.0, 1.0, n)
        y = np.polynomial.polynomial.polyval(x, rng.normal(0.0, 0.5, 4)) - 55.0
        y = (y + rng.normal(0.0, 0.002, n))[None, :]
        v = detect._vandermonde(f, order)
        weighted = detect._fit(v, y, np.ones(y.shape, dtype=bool))
        assert detect._fit(v, y).tobytes() != weighted.tobytes()
        expected = loop_masked_baseline(v, y)
        assert expected.tobytes() == weighted.tobytes()
        assert detect._masked_baseline(v, y).tobytes() == expected.tobytes()

    def test_noise_free_ring_stops_on_its_two_mask_cycle(self, monkeypatch):
        """A noise-free 51-point ring sweep keeps 40, 32, 26 and 22 points
        on passes 1-4, then flips between 24 and 22: the loop fits 9 times,
        one unweighted fit and a refit per pass.  The cycle is seen on
        pass 6, after 6 fits, with the same result."""
        v = detect._vandermonde(SweepConfig().frequencies(), 5)
        y = ring_sweeps([1e-3])
        fits = []
        original = detect._fit

        def counting(v, y, keep=None):
            fits.append(len(y))
            return original(v, y, keep)

        monkeypatch.setattr(detect, "_fit", counting)
        expected = loop_masked_baseline(v, y)
        assert len(fits) == 9
        fits.clear()
        assert detect._masked_baseline(v, y).tobytes() == expected.tobytes()
        assert len(fits) == 6


def press_session(step, seed, duration):
    """Synthesized press session on one grid: presses every 4 s."""
    inductance, resistance, n_caps = defaults.TURN_TABLE[8]
    events = []
    for i in range(int(duration // 4)):
        events += [(4.0 * i + 1.0, "off"), (4.0 * i + 3.0, "on")]
    return scripted_session(
        events,
        PROFILE_PRESETS["press"],
        SweepConfig(step=step, seed=seed),
        reader=defaults.reader_coil(),
        bridge=defaults.bridge_config(),
        sensor_inductance=inductance,
        sensor_resistance=resistance + n_caps * defaults.CAPACITOR_ESR_OHM,
        duration=duration,
        disturb=DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB),
    )


class TestDetectStream:
    def test_empty_stream(self):
        assert list(detect_stream(press_session(60e3, 1, 0.2)[:0])) == []


def stream_rows(stream):
    """(timestamp, magnitudes, residual, peaks) for each row of
    ``detect_stream``'s (chunk, detection) pairs."""
    return [
        row
        for chunk, detection in stream
        for row in zip(
            chunk.timestamps.tolist(),
            chunk.magnitudes_db,
            detection.residuals,
            peak_rows(detection),
        )
    ]


def assert_same_stream(got, expected):
    assert len(got) == len(expected)
    for (t1, m1, r1, p1), (t2, m2, r2, p2) in zip(got, expected):
        assert t1 == t2
        assert np.array_equal(m1, m2)
        assert np.array_equal(r1, r2)
        assert p1 == p2


class TestDetectStreamOnBlock:
    @pytest.mark.parametrize(
        "step, frames",
        [(60e3, 0), (60e3, 1), (60e3, 170), (7.5e3, 0), (7.5e3, 1), (7.5e3, 23)],
        ids=["51pt-empty", "51pt-one", "51pt-long", "401pt-empty", "401pt-one", "401pt-long"],
    )
    def test_block_equals_its_rows(self, step, frames):
        """Every row comes back once, in order, with what detecting it
        alone as a one-row slice gives; 170 rows on 51 points and 23 on
        401 span three blocks, the last one partial."""
        # The empty case is a zero-row slice: scripted_session rejects a
        # duration that gives no frame.
        block = press_session(step, 8, max(frames, 1) / 5.0)[:frames]
        assert len(block) == frames
        if frames > 1:
            assert frames > BLOCK_POINTS // len(block.frequencies)
        got = stream_rows(detect_stream(block))
        alone = [
            (block[i : i + 1], detect_block(block.frequencies, block.magnitudes_db[i : i + 1]))
            for i in range(frames)
        ]
        assert_same_stream(got, stream_rows(alone))
        assert [t for t, *_ in got] == block.timestamps.tolist()

    def test_block_goes_to_detect_block_as_views(self, monkeypatch):
        """No gathering and no copy: each detect_block call gets a view of
        the block's own magnitudes."""
        block = press_session(60e3, 9, 40.0)
        calls = []
        original = detect.detect_block

        def spy(frequencies, magnitudes, cfg):
            calls.append(
                (frequencies is block.frequencies, np.shares_memory(magnitudes, block.magnitudes_db))
            )
            return original(frequencies, magnitudes, cfg)

        monkeypatch.setattr(detect, "detect_block", spy)
        assert len(stream_rows(detect_stream(block))) == 200
        assert calls == [(True, True)] * 3

    @pytest.mark.parametrize("name", sorted(PROFILE_PRESETS))
    def test_decode_block_equals_rows(self, name, monkeypatch):
        """Cutting the block into one-row chunks decodes the same events."""
        profile = PROFILE_PRESETS[name]
        labels = [s.label for s in profile.states]
        script = [(1.0 + 1.2 * i, label) for i, label in enumerate(labels[1:] + labels[:1])]
        inductance, resistance, n_caps = defaults.TURN_TABLE[8]
        block = scripted_session(
            script,
            profile,
            SweepConfig(seed=10),
            reader=defaults.reader_coil(),
            bridge=defaults.bridge_config(),
            sensor_inductance=inductance,
            sensor_resistance=resistance + n_caps * defaults.CAPACITOR_ESR_OHM,
            duration=script[-1][0] + 2.0,
            disturb=DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB),
        )
        events = decode_stream(block, profile)
        assert events
        monkeypatch.setattr(detect, "BLOCK_POINTS", 1)
        assert events == decode_stream(block, profile)
