import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vql import fusion
from vql.core import DimensionError, ParameterError, conv2d
from vql.selfcheck import extract_by_union_find


def rng(seed=0):
    return np.random.default_rng(seed)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestFuseRectifiedScore:
    """The tracking score enters the fused logit as max(0, H)."""

    def test_negative_scores_rectified(self):
        appearance = rng(0).uniform(-1, 1, size=(3, 3))
        out = fusion.fuse(appearance, np.full((3, 3), -2.0))
        np.testing.assert_array_equal(out, fusion.fuse(appearance, np.zeros((3, 3))))

    def test_passthrough_for_positive(self):
        score = rng(1).uniform(0, 1, size=(4, 4))
        np.testing.assert_allclose(fusion.fuse(np.zeros((4, 4)), score), sigmoid(score), rtol=1e-15)

    def test_gain(self):
        # unit gain: the score adds to the logit as is, whatever the appearance logit
        for logit in (-1.0, 0.0, 2.5):
            out = fusion.fuse(np.full((2, 2), logit), np.full((2, 2), 0.3))
            np.testing.assert_allclose(out, sigmoid(logit + 0.3), rtol=1e-15)


class TestFuse:
    def test_zero_is_identity(self):
        a = rng(2).uniform(-1, 1, size=(3, 4))
        np.testing.assert_array_equal(fusion.fuse(a, np.zeros((3, 4))), sigmoid(a))

    def test_commutative_bits(self):
        # adding the two branch terms in either order gives the same bits
        r = rng(3)
        a, h = r.uniform(-1, 1, (4, 4)), r.uniform(-1, 1, (4, 4))
        want = 1.0 / (1.0 + np.exp(-(np.maximum(0.0, h) + a)))
        assert np.array_equal(fusion.fuse(a, h), want)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            fusion.fuse(np.zeros((3, 3)), np.zeros((3, 4)))
        with pytest.raises(DimensionError):
            fusion.fuse(np.zeros((3, 3, 1)), np.zeros((3, 3)))


class TestFuseLogistic:
    """The fused logit is squashed by a logistic."""

    def test_zero_gives_half(self):
        np.testing.assert_allclose(fusion.fuse(np.zeros((3, 3)), np.zeros((3, 3))), 0.5)

    def test_monotone_bounded(self):
        big = fusion.fuse(np.full((2, 2), 20.0), np.zeros((2, 2)))
        assert np.all(big > 0.999999) and np.all(big < 1.0)
        small = fusion.fuse(np.full((2, 2), -20.0), np.zeros((2, 2)))
        assert np.all(small < 1e-6) and np.all(small > 0.0)

    def test_channel_mean(self):
        # the channel-mean kernel gives the channel mean of the 3-channel output
        r = rng(4)
        x, k = r.uniform(-2, 2, size=(6, 5, 4)), r.uniform(-2, 2, size=(3, 3, 4, 3))
        folded = conv2d(x, k.mean(axis=3, keepdims=True))[:, :, 0]
        np.testing.assert_allclose(folded, conv2d(x, k).mean(axis=2), rtol=0, atol=1e-13)
        got = fusion.fuse(folded, np.zeros((6, 5)))
        np.testing.assert_allclose(got, sigmoid(conv2d(x, k).mean(axis=2)), rtol=0, atol=1e-13)


class TestExtractResult:
    def test_all_below_threshold(self):
        res = fusion.extract_result(np.full((4, 4), 0.4))
        assert res.bbox is None and res.s_conf == 0.0 and not res.mask.any()

    def test_single_block(self):
        prob = np.full((6, 6), 0.1)
        prob[2:4, 3:5] = 0.9
        res = fusion.extract_result(prob)
        assert res.bbox == (3, 2, 4, 3)
        assert res.s_conf == pytest.approx(0.9)

    @pytest.mark.parametrize("shape", [(6,), (4, 4, 1), (2, 3, 3)])
    def test_non_2d_map_rejected(self, shape):
        for value in (0.9, 0.1):
            with pytest.raises(DimensionError):
                fusion.extract_result(np.full(shape, value))

    def test_mask_consistent_with_prob(self):
        prob = rng(5).random((10, 10))
        res = fusion.extract_result(prob)
        np.testing.assert_array_equal(res.mask, (prob >= 0.5).astype(np.uint8))
        if res.mask.any():
            assert res.bbox is not None
            assert res.s_conf == pytest.approx(float(prob[res.mask != 0].mean()))


def serpentine():
    """One component snaking through every other row: labels must travel its whole length."""
    mask = np.zeros((9, 9), dtype=np.uint8)
    mask[::2, :] = 1
    mask[1::4, -1] = 1
    mask[3::4, 0] = 1
    return mask


def from_mask(mask):
    return np.where(np.asarray(mask) != 0, 0.9, 0.1)


@st.composite
def probability_maps(draw):
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    return draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))


class TestExtractResultProperty:
    @given(probability_maps())
    @example(from_mask([[1, 1, 0, 1, 1, 0, 1]]))
    @example(from_mask([[0], [1], [1], [0], [1], [1], [1]]))
    @example(from_mask(serpentine()))
    # equal sizes: the row-major first component wins over the leftmost one
    @example(from_mask([[0, 0, 1, 1, 1], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]]))
    @settings(max_examples=200, deadline=None)
    def test_box_of_largest_union_find_component(self, prob):
        res = fusion.extract_result(prob)
        mask, bbox, s_conf = extract_by_union_find(prob)
        np.testing.assert_array_equal(res.mask, mask)
        assert res.bbox == bbox and res.s_conf == s_conf


class TestTemporalLocalize:
    @given(st.floats(0.1, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, k):
        seq = np.abs(np.random.default_rng(6).normal(size=40)) + 0.01
        assert fusion.temporal_localize(seq) == fusion.temporal_localize(k * seq)

    def test_interval_ordering_enforced(self):
        with pytest.raises(ParameterError):
            fusion.TemporalInterval(5, 3)
