from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vql import amm, fusion
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

    @pytest.mark.filterwarnings("error")
    def test_saturated_logit_is_exact_without_a_warning(self):
        # both ends are reached at finite logits: exp overflows to inf from a logit of about -709.8 down, so
        # the map is 0 at -745; 1 + exp(-40) rounds to 1, while 1 + exp(-36) does not
        out = fusion.fuse(np.array([[-1000.0, -745.0, 36.0, 40.0, 1000.0]]), np.zeros((1, 5)))
        assert out.tolist() == [[0.0, 0.0, 0.9999999999999998, 1.0, 1.0]]

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(2)),
            elements=st.floats(-1000.0, 1000.0) | st.sampled_from([-745.0, -709.8, 36.0, 36.7, 40.0]),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bits_of_the_formula_and_inputs_kept(self, maps):
        # the two maps are views into one (H, W, 2) array, as the pipeline passes the one convolution's planes
        before = maps.copy()
        got = fusion.fuse(maps[:, :, 0], maps[:, :, 1])
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-(maps[:, :, 0] + np.maximum(0.0, maps[:, :, 1]))))
        np.testing.assert_array_equal(got, want, strict=True)
        np.testing.assert_array_equal(maps, before, strict=True)

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
        res = fusion.SegmentationResult(np.full((4, 4), 0.4))
        assert res.bbox is None and res.s_conf == 0.0 and not res.mask.any()

    def test_single_block(self):
        prob = np.full((6, 6), 0.1)
        prob[2:4, 3:5] = 0.9
        res = fusion.SegmentationResult(prob)
        assert res.bbox == (3, 2, 4, 3)
        assert res.s_conf == pytest.approx(0.9)

    @pytest.mark.parametrize("shape", [(6,), (4, 4, 1), (2, 3, 3)])
    def test_non_2d_map_rejected(self, shape):
        for value in (0.9, 0.1):
            with pytest.raises(DimensionError):
                fusion.SegmentationResult(np.full(shape, value))

    def test_mask_consistent_with_prob(self):
        prob = rng(5).random((10, 10))
        res = fusion.SegmentationResult(prob)
        np.testing.assert_array_equal(res.mask, (prob >= 0.5).astype(np.uint8), strict=True)
        if res.mask.any():
            assert res.bbox is not None
            assert res.s_conf == float(prob[res.mask != 0].mean())


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
        res = fusion.SegmentationResult(prob)
        # the maps are read-only, so the box worked out from the mask when read cannot go stale
        for name in ("prob", "mask"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(res, name)[0, 0] = 1
        mask, bbox, s_conf = extract_by_union_find(prob)
        np.testing.assert_array_equal(res.mask, mask)
        assert res.bbox == bbox and res.s_conf == s_conf

    @given(probability_maps())
    @example(np.full((3, 3), fusion.MASK_THRESHOLD))
    @example(np.full((3, 3), amm.ADMIT_THRESHOLD))
    @settings(max_examples=200, deadline=None)
    def test_confidence_is_zero_exactly_when_the_mask_is_empty(self, prob):
        res = fusion.SegmentationResult(prob)
        assert (res.s_conf == 0.0) == (not res.mask.any())
        # so an admitted result always has a box to crop
        assert not amm.amm_admit(res) or res.bbox is not None


def count_labellings(monkeypatch):
    """A list that gains one entry per call of the component labelling behind a result's box."""
    calls = []
    runs = fusion._component_runs
    monkeypatch.setattr(fusion, "_component_runs", lambda fg: calls.append(fg.shape) or runs(fg))
    return calls


class TestLazyBox:
    """A result's box is worked out from its read-only mask the first time it is read, and kept."""

    def test_read_once_per_non_empty_map(self, monkeypatch):
        calls = count_labellings(monkeypatch)
        maps = [np.full((5, 6), 0.2), from_mask(serpentine()), rng(7).random((8, 8)), np.zeros((3, 3))]
        results = [fusion.SegmentationResult(prob) for prob in maps]
        assert calls == []
        boxes = [r.bbox for r in results]
        assert calls == [(9, 9), (8, 8)]
        assert [r.bbox for r in results] == boxes and len(calls) == 2
        assert boxes[0] is None and boxes[3] is None

    def test_refused_admission_labels_nothing(self, monkeypatch):
        calls = count_labellings(monkeypatch)
        prob = np.zeros((1, 3))
        prob[0, 0], prob[0, 1] = 0.65, 0.5
        below = fusion.SegmentationResult(prob)
        assert 0.0 < below.s_conf < amm.ADMIT_THRESHOLD
        assert not amm.amm_admit(below) and calls == []
        # admission reads the confidence alone: an admitted result is labelled only by its crop
        assert amm.amm_admit(fusion.SegmentationResult(np.full((2, 2), 0.9))) and calls == []

    def test_box_is_not_a_field(self):
        result = fusion.SegmentationResult(from_mask(serpentine()))
        with pytest.raises(TypeError):
            replace(result, bbox=(0, 0, 1, 1))
        with pytest.raises(TypeError):
            fusion.SegmentationResult(result.prob, result.mask, (0, 0, 8, 8), result.s_conf)
        # equal values are equal whether or not either box has been read
        other = fusion.SegmentationResult(from_mask(serpentine()))
        assert other.bbox == (0, 0, 8, 8) and result == other

    def test_read_only_map_is_kept_and_a_writable_one_copied(self):
        prob = from_mask(serpentine())
        result = fusion.SegmentationResult(prob)
        assert result.prob is not prob and not result.prob.flags.writeable
        prob[...] = 0.0
        assert result.mask.all(axis=1)[::2].all() and result.bbox == (0, 0, 8, 8)
        prob.flags.writeable = False
        assert fusion.SegmentationResult(prob).prob is prob

    def test_mask_must_be_the_map_shape(self):
        # the mask follows from the map, so it is not an argument and cannot disagree with it
        with pytest.raises(TypeError):
            fusion.SegmentationResult(np.zeros((4, 3)), np.zeros((3, 4), dtype=np.uint8))
        result = fusion.SegmentationResult(np.zeros((4, 3)))
        assert [f.name for f in fields(result) if f.init] == ["prob"]
        for name, value in (("mask", np.ones((4, 3), dtype=np.uint8)), ("s_conf", 0.9)):
            with pytest.raises(ValueError, match="init=False"):
                replace(result, **{name: value})


class TestTemporalLocalize:
    @given(st.floats(0.1, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, k):
        seq = np.abs(np.random.default_rng(6).normal(size=40)) + 0.01
        assert fusion.temporal_localize(seq) == fusion.temporal_localize(k * seq)

    def test_interval_ordering_enforced(self):
        with pytest.raises(ParameterError):
            fusion.TemporalInterval(5, 3)

    @pytest.mark.parametrize("ends", [(0.5, 3.0), (0, 3.0), (False, True), (np.bool_(False), 3), ("0", 3)])
    def test_interval_ends_are_integers(self, ends):
        with pytest.raises(ParameterError, match="must be an integer"):
            fusion.TemporalInterval(*ends)

    def test_interval_ends_are_stored_as_int(self):
        interval = fusion.TemporalInterval(np.int64(2), np.uint8(4))
        assert interval == fusion.TemporalInterval(2, 4)
        assert type(interval.start_frame) is int and type(interval.end_frame) is int
