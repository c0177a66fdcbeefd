"""The statistics-based filter solvers against the per-entry loops they replaced.

The oracles in :mod:`vql.selfcheck` convolve every bank entry for each loss,
gradient and step. The solvers compute the same iterates from patch
statistics, summing in another order, so the kernels agree to rounding:
``SOLVER_TOL`` (1e-10) relative. Where rounding alone settled a
Gauss-Newton accept-or-halve decision, the two runs may take different,
equally good steps, and their losses are compared instead, to
``CLEAR_MARGIN``. The cases here pin a grid of kernel sizes, channel counts
and bank sizes, FIFO eviction and halved steps, which the registry's random
draws do not. Hypothesis properties check that neither solver raises the
loss and that bank entries and filters are read-only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vql import amm, glm
from vql.core import gaussian_label
from vql.selfcheck import CLEAR_MARGIN, SOLVER_TOL, descent_deviation, empty_banks, optimizer_deviation

CASES = [(k, c, n) for k in (1, 3) for c in (1, 2, 4) for n in (1, 3, 8)]


def amm_sample(r, channels, size=8):
    return amm.AmmSample(r.uniform(-1, 1, (size, size, channels)), (r.random((size, size)) > 0.5).astype(np.uint8))


def glm_sample(r, channels, size=8):
    label = gaussian_label(r.uniform(1, size - 2, size=2), r.uniform(1.0, 2.0), (size, size))
    return glm.GlmSample(r.uniform(-1, 1, (size, size, channels)), label, r.random((size, size)))


def hinge_sample(r, channels, size=8):
    # target region of 2x2 pixels, hinge everywhere else; positive features
    # keep the background scores of a negative filter below the kink until a
    # full step toward the label lifts all of them above it at once
    region = np.zeros((size, size))
    c = size // 2
    region[c - 1 : c + 1, c - 1 : c + 1] = 1.0
    label = gaussian_label((c - 0.5, c - 0.5), 1.0, (size, size))
    return glm.GlmSample(r.uniform(0.5, 1.5, (size, size, channels)), label, region)


def assert_descent_matches(start, bank, n_iter):
    deviation, got = descent_deviation(start, bank, n_iter)
    assert deviation <= SOLVER_TOL
    return got


def assert_optimizer_matches(start, bank, n_iter):
    deviation, tolerance, got, fit = optimizer_deviation(start, bank, n_iter)
    assert deviation <= tolerance
    return got, fit


@pytest.mark.parametrize("ksz,channels,entries", CASES)
def test_steepest_descent_matches_per_entry_loops(ksz, channels, entries):
    r = np.random.default_rng(100 * ksz + 10 * channels + entries)
    samples = [amm_sample(r, channels) for _ in range(entries)]
    start = amm.SegFilter(r.uniform(-1, 1, (ksz, ksz, channels, 3)), float(r.uniform(0.01, 0.3)))
    for n_iter in (1, 3, 10):
        assert_descent_matches(start, samples, n_iter)


@pytest.mark.parametrize("ksz,channels,entries", CASES)
def test_optimize_filter_matches_per_entry_loops(ksz, channels, entries):
    r = np.random.default_rng(100 * ksz + 10 * channels + entries)
    samples = [glm_sample(r, channels) for _ in range(entries)]
    start = glm.TrackFilter(r.uniform(-1, 1, (ksz, ksz, channels, 1)), float(r.uniform(0.05, 0.4)))
    for n_iter in (1, 3, 10):
        _, fit = assert_optimizer_matches(start, samples, n_iter)
        if n_iter == 1:
            assert fit.margin > CLEAR_MARGIN


def test_descent_follows_fifo_eviction():
    r = np.random.default_rng(7)
    static = glm.GlmSample(np.zeros((8, 8, 2)), np.zeros((8, 8)), np.ones((8, 8)))
    mem = empty_banks(static)
    filt = amm.SegFilter.zeros(3, 2)
    for _ in range(6):
        mem = mem.admit(amm_sample(r, 2), static, capacity=3)
        filt = assert_descent_matches(filt, mem.amm_entries, 3)
    assert len(mem.amm_entries) == 3


def test_optimizer_follows_fifo_eviction():
    r = np.random.default_rng(8)
    mem = empty_banks(glm_sample(r, 2))
    entry = amm.AmmSample(np.zeros((8, 8, 2)), np.ones((8, 8)))
    filt = glm.TrackFilter.zeros(3, 2)
    for _ in range(5):
        mem = mem.admit(entry, glm_sample(r, 2), capacity=3)
        filt, fit = assert_optimizer_matches(filt, mem.glm_samples, 3)
        assert fit.margin > CLEAR_MARGIN
    assert len(mem.glm_samples) == 3


@pytest.mark.parametrize("channels", (1, 2))
def test_optimizer_matches_when_steps_are_halved(channels):
    halved = 0
    for seed in range(6):
        r = np.random.default_rng(seed)
        samples = [hinge_sample(r, channels) for _ in range(1 + seed)]
        start = glm.TrackFilter(-r.uniform(0.01, 0.1, (1, 1, channels, 1)), 0.1)
        _, fit = assert_optimizer_matches(start, samples, 3)
        assert fit.margin > CLEAR_MARGIN
        halved += fit.halvings > 0
    assert halved >= 3


@st.composite
def amm_problems(draw):
    entries, ksz, channels = draw(st.integers(1, 3)), draw(st.sampled_from([1, 3])), draw(st.integers(1, 2))
    unit = st.floats(-1, 1)
    features = draw(hnp.arrays(np.float64, (entries, 5, 5, channels), elements=unit))
    masks = draw(hnp.arrays(np.uint8, (entries, 5, 5), elements=st.integers(0, 1)))
    kernel = draw(hnp.arrays(np.float64, (ksz, ksz, channels, 3), elements=unit))
    samples = [amm.AmmSample(f, m) for f, m in zip(features, masks)]
    return samples, amm.SegFilter(kernel, draw(st.floats(0.01, 1.0)))


@st.composite
def glm_problems(draw):
    entries, ksz, channels = draw(st.integers(1, 3)), draw(st.sampled_from([1, 3])), draw(st.integers(1, 2))
    unit = st.floats(-1, 1)
    features = draw(hnp.arrays(np.float64, (entries, 5, 5, channels), elements=unit))
    labels = draw(hnp.arrays(np.float64, (entries, 5, 5), elements=st.floats(0, 1)))
    regions = draw(hnp.arrays(np.float64, (entries, 5, 5), elements=st.floats(0, 1)))
    kernel = draw(hnp.arrays(np.float64, (ksz, ksz, channels, 1), elements=unit))
    samples = [glm.GlmSample(f, g, s) for f, g, s in zip(features, labels, regions)]
    return samples, glm.TrackFilter(kernel, draw(st.floats(0.05, 1.0)))


@given(amm_problems())
@settings(max_examples=40, deadline=None)
def test_steepest_descent_never_raises_the_loss(problem):
    samples, filt = problem
    prev = amm.seg_loss(filt, samples)
    for _ in range(4):
        filt = amm.steepest_descent(filt, samples, 1)
        cur = amm.seg_loss(filt, samples)
        assert cur <= prev + 1e-12 * max(1.0, prev)
        prev = cur


@given(glm_problems())
@settings(max_examples=40, deadline=None)
def test_optimize_filter_never_raises_the_loss(problem):
    samples, filt = problem
    prev = glm.track_loss(filt, samples)
    for _ in range(4):
        filt = glm.optimize_filter(filt, samples, 1)
        cur = glm.track_loss(filt, samples)
        assert cur <= prev + 1e-12 * max(1.0, prev)
        prev = cur


@given(
    hnp.arrays(np.float64, (4, 4, 2), elements=st.floats(-1, 1)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.floats(-1, 1),
)
@settings(max_examples=25, deadline=None)
def test_bank_entries_and_filters_are_read_only(feature, pixel, value):
    mask = (feature[:, :, 0] > 0).astype(np.uint8)
    label = np.abs(feature[:, :, 1])
    seg = amm.AmmSample(feature, mask)
    trk = glm.GlmSample(feature, label, label)
    kernels = (amm.SegFilter.zeros(3, 2).kernel, glm.TrackFilter.zeros(3, 2).kernel)
    for array in (seg.feature, seg.mask, trk.feature, trk.label, trk.target_region, *kernels):
        with pytest.raises(ValueError):
            array[pixel] = value
    # entries hold their own copies: writing to the caller's arrays changes
    # neither the entry nor the statistics cached on it
    filt = amm.SegFilter(np.full((3, 3, 2, 3), 0.1), 0.1)
    snapshot = seg.feature.copy()
    cached = amm.seg_loss(filt, [seg])
    feature[pixel] = value + 2.0
    mask[pixel] = 1 - mask[pixel]
    assert np.array_equal(seg.feature, snapshot)
    assert amm.seg_loss(filt, [seg]) == cached
    assert cached == amm.seg_loss(filt, [amm.AmmSample(seg.feature, seg.mask)])
