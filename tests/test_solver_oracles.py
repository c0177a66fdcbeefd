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
loss, that bank entries are read-only and that a solver returns a read-only
kernel of its own.
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
    start = r.uniform(-1, 1, (ksz, ksz, channels, 3))
    for n_iter in (1, 3, 10):
        assert_descent_matches(start, samples, n_iter)


@pytest.mark.parametrize("ksz,channels,entries", CASES)
def test_optimize_filter_matches_per_entry_loops(ksz, channels, entries):
    r = np.random.default_rng(100 * ksz + 10 * channels + entries)
    samples = [glm_sample(r, channels) for _ in range(entries)]
    start = r.uniform(-1, 1, (ksz, ksz, channels, 1))
    for n_iter in (1, 3, 10):
        _, fit = assert_optimizer_matches(start, samples, n_iter)
        if n_iter == 1:
            assert fit.margin > CLEAR_MARGIN


def test_descent_follows_fifo_eviction():
    r = np.random.default_rng(7)
    static = glm.GlmSample(np.zeros((8, 8, 2)), np.zeros((8, 8)), np.ones((8, 8)))
    mem = empty_banks(static)
    kernel = np.zeros((3, 3, 2, 3))
    for _ in range(6):
        mem = mem.admit(amm_sample(r, 2), static, capacity=3)
        kernel = assert_descent_matches(kernel, mem.amm_entries, 3)
    assert len(mem.amm_entries) == 3


def test_optimizer_follows_fifo_eviction():
    r = np.random.default_rng(8)
    mem = empty_banks(glm_sample(r, 2))
    entry = amm.AmmSample(np.zeros((8, 8, 2)), np.ones((8, 8)))
    kernel = np.zeros((3, 3, 2, 1))
    for _ in range(5):
        mem = mem.admit(entry, glm_sample(r, 2), capacity=3)
        kernel, fit = assert_optimizer_matches(kernel, mem.glm_samples, 3)
        assert fit.margin > CLEAR_MARGIN
    assert len(mem.glm_samples) == 3


@pytest.mark.parametrize("channels", (1, 2))
def test_optimizer_matches_when_steps_are_halved(channels):
    halved = 0
    for seed in range(6):
        r = np.random.default_rng(seed)
        samples = [hinge_sample(r, channels) for _ in range(1 + seed)]
        start = -r.uniform(0.01, 0.1, (1, 1, channels, 1))
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
    return samples, kernel


@st.composite
def glm_problems(draw):
    entries, ksz, channels = draw(st.integers(1, 3)), draw(st.sampled_from([1, 3])), draw(st.integers(1, 2))
    unit = st.floats(-1, 1)
    features = draw(hnp.arrays(np.float64, (entries, 5, 5, channels), elements=unit))
    labels = draw(hnp.arrays(np.float64, (entries, 5, 5), elements=st.floats(0, 1)))
    regions = draw(hnp.arrays(np.float64, (entries, 5, 5), elements=st.floats(0, 1)))
    kernel = draw(hnp.arrays(np.float64, (ksz, ksz, channels, 1), elements=unit))
    samples = [glm.GlmSample(f, g, s) for f, g, s in zip(features, labels, regions)]
    return samples, kernel


@given(amm_problems())
@settings(max_examples=40, deadline=None)
def test_steepest_descent_never_raises_the_loss(problem):
    samples, kernel = problem
    prev = amm.seg_loss(kernel, samples)
    for _ in range(4):
        kernel = amm.steepest_descent(kernel, samples, 1)
        cur = amm.seg_loss(kernel, samples)
        assert cur <= prev + 1e-12 * max(1.0, prev)
        prev = cur


@given(glm_problems())
@settings(max_examples=40, deadline=None)
def test_optimize_filter_never_raises_the_loss(problem):
    samples, kernel = problem
    prev = glm.track_loss(kernel, samples)
    for _ in range(4):
        kernel = glm.optimize_filter(kernel, samples, 1)
        cur = glm.track_loss(kernel, samples)
        assert cur <= prev + 1e-12 * max(1.0, prev)
        prev = cur


@given(
    hnp.arrays(np.float64, (4, 4, 2), elements=st.floats(-1, 1)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.floats(-1, 1),
    st.integers(0, 3),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_bank_entries_and_filters_are_read_only(feature, pixel, value, n_iter, at_optimum):
    mask = (feature[:, :, 0] > 0).astype(np.uint8)
    label = np.abs(feature[:, :, 1])
    seg = amm.AmmSample(feature, mask)
    trk = glm.GlmSample(feature, label, label)
    if at_optimum:
        # an empty mask and a zero label put the zero kernel at the optimum,
        # so both solvers take the converged break at their first gradient
        banks = ([amm.AmmSample(feature, 0 * mask)], [glm.GlmSample(feature, 0 * label, 0 * label)])
        starts = (np.zeros((3, 3, 2, 3)), np.zeros((3, 3, 2, 1)))
    else:
        banks = ([seg], [trk])
        starts = (np.full((3, 3, 2, 3), 0.1), np.full((3, 3, 2, 1), 0.1))
    fits = (amm.steepest_descent(starts[0], banks[0], n_iter), glm.optimize_filter(starts[1], banks[1], n_iter))
    losses = (amm.seg_loss(fits[0], banks[0]), glm.track_loss(fits[1], banks[1]))
    for array in (seg.feature, seg.mask, trk.feature, trk.label, trk.target_region, *fits):
        with pytest.raises(ValueError):
            array[pixel] = value
    # a fit is never a view of its start kernel: writing to the caller's
    # start changes neither the fit nor a later loss
    snapshots = [fit.copy() for fit in fits]
    for start in starts:
        start += value + 2.0
    assert all(np.array_equal(fit, snapshot) for fit, snapshot in zip(fits, snapshots))
    assert (amm.seg_loss(fits[0], banks[0]), glm.track_loss(fits[1], banks[1])) == losses
    # entries hold their own copies: writing to the caller's arrays changes
    # neither the entry nor the statistics cached on it
    kernel = np.full((3, 3, 2, 3), 0.1)
    snapshot = seg.feature.copy()
    cached = amm.seg_loss(kernel, [seg])
    feature[pixel] = value + 2.0
    mask[pixel] = 1 - mask[pixel]
    assert np.array_equal(seg.feature, snapshot)
    assert amm.seg_loss(kernel, [seg]) == cached
    assert cached == amm.seg_loss(kernel, [amm.AmmSample(seg.feature, seg.mask)])
