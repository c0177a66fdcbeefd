import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vql import amm, core, glm, pipeline
from vql.selfcheck import component_runs_mismatch, conv2d_naive


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConv2d:
    def test_identity_kernel(self):
        x = rng().uniform(-1, 1, size=(4, 5, 3))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0] = np.eye(3)
        np.testing.assert_allclose(core.conv2d(x, k), x, rtol=0, atol=0)

    def test_constant_field_tap_count(self):
        out = core.conv2d(np.ones((4, 4, 1)), np.ones((3, 3, 1, 1)))[:, :, 0]
        assert out[1, 1] == 9
        assert out[2, 2] == 9
        for corner in ((0, 0), (0, 3), (3, 0), (3, 3)):
            assert out[corner] == 4

    def test_linearity(self):
        r = rng(3)
        a = r.uniform(-1, 1, size=(6, 6, 2))
        b = r.uniform(-1, 1, size=(6, 6, 2))
        k = r.uniform(-1, 1, size=(3, 3, 2, 2))
        lhs = core.conv2d(2.5 * a - 1.25 * b, k)
        rhs = 2.5 * core.conv2d(a, k) - 1.25 * core.conv2d(b, k)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(core.DimensionError):
            core.conv2d(np.ones((4, 4, 2)), np.ones((3, 3, 3, 1)))

    def test_even_kernel_rejected(self):
        with pytest.raises(core.ParameterError):
            core.conv2d(np.ones((4, 4, 2)), np.ones((2, 2, 2, 1)))

    @given(
        st.sampled_from([1, 3, 5]),
        st.integers(1, 7),
        st.integers(1, 7),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    # terms that cancel leave a sum far smaller than its error, which scales with the sum of |terms|
    @example(ksz=1, h=6, w=7, c_in=3, c_out=3, seed=4194305)
    def test_matches_naive_loop(self, ksz, h, w, c_in, c_out, seed):
        r = rng(seed)
        x = r.uniform(-1, 1, size=(h, w, c_in))
        k = r.uniform(-1, 1, size=(ksz, ksz, c_in, c_out))
        error = np.abs(core.conv2d(x, k) - conv2d_naive(x, k))
        assert np.all(error <= 1e-12 * conv2d_naive(np.abs(x), np.abs(k)))


def conv2d_row_taps(x, k):
    """conv2d's formula built plainly: K explicit shifted copies of the channel-first padded map stacked
    into one (K*C, L) matrix, the (K*D, K*C) kernel product, and K shifted adds into zero-filled planes."""
    ksz, _, c, d = k.shape
    r = ksz // 2
    h, w = x.shape[:2]
    wp = w + 2 * r
    xp = np.zeros((c, h + 2 * r, wp))
    xp[:, r : r + h, r : r + w] = x.transpose(2, 0, 1)
    flat = xp.reshape(c, -1)
    length = flat.shape[1] - (ksz - 1)
    stacked = np.concatenate([flat[:, dx : dx + length] for dx in range(ksz)])
    rows = k.transpose(0, 3, 1, 2).reshape(ksz * d, ksz * c) @ stacked
    span = max(0, (h - 1) * wp + w)
    out = np.zeros((d, h * wp))
    for dy in range(ksz):
        out[:, :span] += rows[dy * d : (dy + 1) * d, dy * wp : dy * wp + span]
    return out.reshape(d, h, wp)[:, :, :w].transpose(1, 2, 0)


class TestChannelFirstLayout:
    """conv2d's strided view of the channel-first padded map and its in-place sum of the row blocks change
    not one output bit against the same formula built from explicit copies and zero-filled planes."""

    @pytest.mark.parametrize("ksz", [1, 3, 5])
    @pytest.mark.parametrize("c_in", [1, 2, 3, 4])
    @pytest.mark.parametrize("c_out", [1, 2, 3])
    # a pixel, a row, a column, maps narrower or shorter than a 5 x 5 kernel, and the pipeline's 48 x 48 canvas
    @pytest.mark.parametrize("hw", [(1, 1), (1, 7), (6, 1), (2, 4), (4, 3), (7, 6), (48, 48)])
    def test_bit_equal_to_channel_last(self, ksz, c_in, c_out, hw):
        r = rng(ksz * 100 + c_in * 10 + c_out)
        x = r.uniform(-1, 1, size=(*hw, c_in))
        k = r.uniform(-1, 1, size=(ksz, ksz, c_in, c_out))
        np.testing.assert_array_equal(core.conv2d(x, k), conv2d_row_taps(x, k), strict=True)

    @given(
        st.sampled_from([1, 3, 5]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_channel_last_drawn(self, ksz, h, w, c_in, c_out, seed):
        r = rng(seed)
        x = r.normal(size=(h, w, c_in))
        k = r.normal(size=(ksz, ksz, c_in, c_out))
        np.testing.assert_array_equal(core.conv2d(x, k), conv2d_row_taps(x, k), strict=True)


class TestIm2col:
    @given(
        st.sampled_from([1, 3, 5]), st.integers(1, 7), st.integers(1, 7), st.integers(1, 3), st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_tap_loop(self, ksz, h, w, c, seed):
        x = rng(seed).uniform(-1, 1, size=(h, w, c))
        r = ksz // 2
        padded = np.zeros((h + 2 * r, w + 2 * r, c))
        padded[r : r + h, r : r + w] = x
        want = np.empty((h, w, ksz, ksz, c))
        for dy in range(ksz):
            for dx in range(ksz):
                want[:, :, dy, dx] = padded[dy : dy + h, dx : dx + w]
        rows = core.im2col(x, ksz)
        assert rows.flags.c_contiguous
        np.testing.assert_array_equal(rows, want.reshape(h * w, -1))

    @pytest.mark.parametrize(
        "ksz,message",
        [(3.0, "an integer"), (True, "an integer"), ("3", "an integer"), (0, "odd and positive"), (2, "odd and positive")],
    )
    def test_kernel_size_must_be_an_odd_positive_integer(self, ksz, message):
        with pytest.raises(core.ParameterError, match=f"^kernel size must be {message}"):
            core.im2col(np.ones((4, 4, 2)), ksz)


def entry_maps(size=5, channels=2):
    """Valid maps for a BankEntry, by field name."""
    r = rng(40)
    return {
        "feature": r.uniform(-1, 1, size=(size, size, channels)),
        "mask": (r.random((size, size)) > 0.5).astype(np.uint8),
        "target_region": r.random((size, size)),
        "label": core.gaussian_label((2, 2), 1.0, (size, size)),
    }


class TestBankEntry:
    """One entry type keeps every check both banks need (the finite and 0/1 checks are in test_amm and test_glm)."""

    @pytest.mark.parametrize("name", ["mask", "target_region", "label"])
    @pytest.mark.parametrize("hw", [(5, 4), (4, 5)])
    def test_maps_share_one_height_and_width(self, name, hw):
        maps = entry_maps()
        maps[name] = np.zeros(hw)
        with pytest.raises(core.DimensionError, match=rf"^entry {name} must be of shape \(5, 5\), got shape"):
            core.BankEntry(**maps)

    def test_feature_must_have_channels(self):
        maps = entry_maps()
        maps["feature"] = maps["feature"][:, :, 0]
        message = r"^entry feature must be of shape \(-1, -1, -1\), got shape \(5, 5\)$"
        with pytest.raises(core.DimensionError, match=message):
            core.BankEntry(**maps)

    def test_entries_compare_and_hash_by_identity(self):
        a, b = core.BankEntry(**entry_maps()), core.BankEntry(**entry_maps())
        assert a == a and a != b
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("value", [-1e-9, 1.5])
    def test_region_in_unit_interval(self, value):
        maps = entry_maps()
        maps["target_region"][1, 2] = value
        with pytest.raises(core.ParameterError, match="target_region values must lie in"):
            core.BankEntry(**maps)


CHECKS = [core.checked_array, core.checked_mask]


class TestCheckedArrays:
    """The one array rule of every value type: ``checked_array`` (finite float64 of a shape) and
    ``checked_mask`` (0 and 1 only, of a shape), both returning arrays that nothing can change."""

    @staticmethod
    def sample(check):
        """A new writable (2, 3) array that ``check`` accepts."""
        return np.array([[0.0, 1, 2], [3, 4, 5]]) if check is core.checked_array else np.eye(2, 3, dtype=np.uint8)

    @pytest.mark.parametrize("check", CHECKS)
    def test_minus_one_takes_any_length(self, check):
        for n in (0, 1, 7):
            assert check(np.zeros((n, 3)), "points", (-1, 3)).shape == (n, 3)
        with pytest.raises(core.DimensionError, match=r"^points must be of shape \(-1, 3\), got shape \(4, 2\)$"):
            check(np.zeros((4, 2)), "points", (-1, 3))
        with pytest.raises(core.DimensionError, match=r"^points must be of shape \(-1, 3\), got shape \(3,\)$"):
            check(np.zeros(3), "points", (-1, 3))

    def test_a_3_vector_is_named(self):
        with pytest.raises(core.DimensionError, match=r"^point must be a 3-vector, got shape \(1, 3\)$"):
            core.checked_array(np.zeros((1, 3)), "point", (3,))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_refused(self, value):
        arr = np.zeros((2, 3))
        arr[1, 2] = value
        with pytest.raises(core.ParameterError, match=r"^points must be finite$"):
            core.checked_array(arr, "points", (2, 3))

    @pytest.mark.parametrize(
        "value, kind",
        [
            pytest.param("abc", "str", id="string"),
            pytest.param(["1", "x", "2"], "list", id="string-item"),
            pytest.param([1.0, [2.0], 3.0], "list", id="ragged"),
            pytest.param({"x": 1.0}, "dict", id="dict"),
        ],
    )
    def test_value_that_is_not_real_numbers_refused(self, value, kind):
        # numpy's own ValueError or TypeError would not name the field
        with pytest.raises(core.ParameterError, match=rf"^point must hold real numbers, got {kind}$"):
            core.checked_array(value, "point", (3,))

    @pytest.mark.parametrize("check", CHECKS)
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_stack_names_its_first_bad_frame(self, check, data):
        # the stack is checked once; only a refusal looks for the frame, the first of those that break the rule
        n, h, w = (data.draw(st.integers(1, 5)) for _ in range(3))
        stack = np.zeros((n, h, w))
        bad = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        value, rule = (np.nan, "must be finite") if check is core.checked_array else (2, "values must be 0 or 1")
        for t in bad:
            stack[t, data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))] = value
        with pytest.raises(core.ParameterError, match=rf"^frame {bad[0]} plane {rule}$"):
            check(stack, "planes", (n, h, w), "plane")
        stack[bad] = 0
        assert check(stack, "planes", (-1, h, w), "plane").shape == (n, h, w)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_a_2_in_a_mask_refused(self, dtype):
        mask = np.zeros((3, 4), dtype=dtype)
        mask[2, 1] = 2
        with pytest.raises(core.ParameterError, match=r"^mask values must be 0 or 1$"):
            core.checked_mask(mask, "mask", (3, 4))
        mask[2, 1] = 1
        assert core.checked_mask(mask, "mask", (3, 4)).dtype == dtype

    @pytest.mark.parametrize("check", CHECKS)
    def test_frozen_input_is_kept(self, check):
        value = self.sample(check)
        value.flags.writeable = False
        assert check(value, "x", (2, 3)) is value
        # a read-only view of a read-only array is kept too, and stays a view
        row = value[1]
        assert check(row, "x", (3,)) is row

    @pytest.mark.parametrize("check", CHECKS)
    def test_writable_input_is_copied(self, check):
        value = self.sample(check)
        want = value.copy()
        # a read-only view of a writable array changes with it, so it is copied too
        view = value[:]
        view.flags.writeable = False
        for source in value, view:
            out = check(source, "x", (2, 3))
            assert out is not source and not out.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                out[0, 0] = 1
            value[0, 0] = 0 if value[0, 0] else 1
            np.testing.assert_array_equal(out, want)
            value[...] = want


def record_freezes(monkeypatch, module):
    """A list of the arrays ``module`` freezes in place, in order."""
    frozen = []
    monkeypatch.setattr(module, "frozen_in_place", lambda arr: frozen.append(arr) or core.frozen_in_place(arr))
    return frozen


class TestFreshProducts:
    """An array a function has just computed is made read-only where it is made, not copied."""

    def test_frozen_in_place_is_the_array(self):
        arr = np.arange(6.0)
        assert core.frozen_in_place(arr) is arr and not arr.flags.writeable

    def test_statistics_are_the_products(self, monkeypatch):
        frozen = record_freezes(monkeypatch, amm)
        entry = core.BankEntry(**entry_maps())
        gram, cross, _ = amm._statistics(entry, 3)
        assert gram is frozen[0] and cross is frozen[1]
        assert not gram.flags.writeable and not cross.flags.writeable

    @pytest.mark.parametrize("solve,c_out", [(amm.steepest_descent, 3), (glm.optimize_filter, 1)])
    def test_a_stepped_kernel_is_a_view_of_its_product(self, monkeypatch, solve, c_out):
        module = amm if solve is amm.steepest_descent else glm
        frozen = record_freezes(monkeypatch, module)
        start, bank = np.full((3, 3, 2, c_out), 0.1), [core.BankEntry(**entry_maps())]
        out = solve(start, bank, 2)
        assert out.base is frozen[-1] and not out.flags.writeable
        assert not np.shares_memory(out, start)
        # no step: the writable start kernel is copied, a frozen one kept as is
        made = len(frozen)
        still = solve(start, bank, 0)
        assert len(frozen) == made and not np.shares_memory(still, start) and not still.flags.writeable
        start.flags.writeable = False
        assert np.shares_memory(solve(start, bank, 0), start)

    def test_resampled_label_is_the_resample(self, monkeypatch):
        resampled = []
        resize = pipeline.bilinear_resize
        monkeypatch.setattr(pipeline, "bilinear_resize", lambda *a: resampled.append(resize(*a)) or resampled[-1])
        label = pipeline._resampled_label.__wrapped__(9)
        assert label is resampled[0] and not label.flags.writeable


SOLVER_LOSSES = [
    pytest.param(amm.seg_loss, 3, id="amm"),
    pytest.param(glm.track_loss, 1, id="glm"),
]


class TestBankCheck:
    """Both solvers check their bank and kernel shape in one place, each with its own output channel count."""

    @pytest.mark.parametrize("loss,c_out", SOLVER_LOSSES)
    def test_empty_bank_refused(self, loss, c_out):
        with pytest.raises(core.EmptyInputError, match="no entries"):
            loss(np.zeros((3, 3, 2, c_out)), [])

    @pytest.mark.parametrize("loss,c_out", SOLVER_LOSSES)
    def test_other_output_channel_count_refused(self, loss, c_out):
        with pytest.raises(core.DimensionError, match=f"output channel count {c_out}"):
            loss(np.zeros((3, 3, 2, 4 - c_out)), [core.BankEntry(**entry_maps())])

    @pytest.mark.parametrize("loss,c_out", SOLVER_LOSSES)
    def test_entry_of_other_channel_count_refused(self, loss, c_out):
        bank = [core.BankEntry(**entry_maps()), core.BankEntry(**entry_maps(channels=3))]
        with pytest.raises(core.DimensionError, match="3 channels does not fit"):
            loss(np.zeros((3, 3, 2, c_out)), bank)

    @pytest.mark.parametrize("loss,c_out", SOLVER_LOSSES)
    def test_even_kernel_refused(self, loss, c_out):
        with pytest.raises(core.ParameterError, match="odd"):
            loss(np.zeros((2, 2, 2, c_out)), [core.BankEntry(**entry_maps())])


class TestGaussianLabel:
    def test_peak_on_pixel(self):
        g = core.gaussian_label((2, 2), 0.7, (5, 5))
        assert g[2, 2] == 1.0
        assert g.max() == 1.0

    def test_large_sigma_limit(self):
        g = core.gaussian_label((2, 2), 1e6, (5, 5))
        assert np.all(g > 0.999999)

    def test_unit_distance_value(self):
        g = core.gaussian_label((2, 2), 1.0, (5, 5))
        assert g[2, 3] == pytest.approx(np.exp(-0.5))

    def test_bad_sigma(self):
        # NaN is refused too, not turned into an all-NaN label
        for sigma in (0.0, -1.0, np.nan):
            with pytest.raises(core.ParameterError, match="sigma must be positive"):
                core.gaussian_label((0, 0), sigma, (3, 3))


class TestConnectedComponents:
    """The row runs a ``fusion.SegmentationResult``'s box labels its mask with, and the component each belongs to."""

    def test_empty_mask(self):
        run_start, run_length, root = core._component_runs(np.zeros((4, 4), dtype=bool))
        assert run_start.size == run_length.size == root.size == 0

    def test_diagonal_pixels_are_two_components(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        run_start, run_length, root = core._component_runs(mask)
        np.testing.assert_array_equal(run_start, [0, 4])
        np.testing.assert_array_equal(run_length, [1, 1])
        np.testing.assert_array_equal(root, [0, 1])

    def test_partition_properties(self):
        mask = rng(9).random((16, 16)) > 0.6
        run_start, run_length, root = core._component_runs(mask)
        # the runs tile the foreground in row-major order, each inside one row
        pixels = np.concatenate([np.arange(s, s + n) for s, n in zip(run_start, run_length)])
        np.testing.assert_array_equal(pixels, np.flatnonzero(mask))
        assert np.all(run_start // 16 == (run_start + run_length - 1) // 16)
        # a root is a run of its own component that comes no later
        np.testing.assert_array_equal(root[root], root)
        assert np.all(root <= np.arange(root.size))

    @given(hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)))
    @settings(max_examples=150, deadline=None)
    @example(np.zeros((1, 9), dtype=bool))
    @example(np.ones((1, 9), dtype=bool))
    @example(np.ones((9, 1), dtype=bool))
    @example(np.array([[1], [0], [1], [1]], dtype=bool))
    @example(np.zeros((7, 5), dtype=bool))
    @example(np.ones((7, 5), dtype=bool))
    @example(np.indices((8, 9)).sum(axis=0) % 2 == 0)
    @example(np.indices((8, 9)).sum(axis=0) % 2 == 1)
    # a U whose arms meet only in the last row, so a hook has to travel back up
    @example(np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1]], dtype=bool))
    def test_matches_union_find(self, mask):
        assert component_runs_mismatch(mask) is None

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_size_mask(self, shape):
        run_start, run_length, root = core._component_runs(np.zeros(shape, dtype=bool))
        assert run_start.size == run_length.size == root.size == 0


class TestMinBoundingRect:
    def test_single_pixel(self):
        mask = np.zeros((6, 7))
        mask[3, 5] = 1
        assert core.min_bounding_rect(mask) == (5, 3, 5, 3)

    def test_two_pixels(self):
        mask = np.zeros((3, 5))
        mask[0, 0] = mask[2, 4] = 1
        assert core.min_bounding_rect(mask) == (0, 0, 4, 2)

    def test_empty_raises(self):
        with pytest.raises(core.EmptyInputError):
            core.min_bounding_rect(np.zeros((3, 3)))


class TestMedianFilter:
    def test_constant_sequence(self):
        np.testing.assert_array_equal(core.median_filter_1d([2.0] * 7, 5), [2.0] * 7)

    def test_spike_removed(self):
        np.testing.assert_array_equal(core.median_filter_1d([0, 0, 9, 0, 0], 5), np.zeros(5))

    def test_even_window_rejected(self):
        with pytest.raises(core.ParameterError):
            core.median_filter_1d([1.0, 2.0], 4)

    @pytest.mark.parametrize("window,message", [(3.0, "an integer"), (True, "an integer"), (-1, "odd and positive")])
    def test_window_must_be_an_odd_positive_integer(self, window, message):
        with pytest.raises(core.ParameterError, match=f"^window must be {message}"):
            core.median_filter_1d([1.0, 2.0, 3.0], window)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        st.sampled_from([1, 3, 5, 7]),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_sort_oracle(self, seq, window):
        got = core.median_filter_1d(seq, window)
        for i in range(len(seq)):
            lo, hi = max(0, i - window // 2), min(len(seq), i + window // 2 + 1)
            assert got[i] == pytest.approx(float(np.median(sorted(seq[lo:hi]))))

    @given(
        hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e6, 1e6)),
        st.sampled_from([1, 3, 5, 7, 9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_per_window_median(self, seq, window):
        half = window // 2
        want = [np.median(seq[max(0, i - half) : i + half + 1]) for i in range(seq.size)]
        np.testing.assert_array_equal(core.median_filter_1d(seq, window), want)


class TestLastRun:
    @given(st.lists(st.booleans(), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_backward_scan(self, flags):
        ends = [i for i, flag in enumerate(flags) if flag]
        if not ends:
            assert core.last_run(flags) is None
            return
        start = ends[-1]
        while start > 0 and flags[start - 1]:
            start -= 1
        assert core.last_run(flags) == (start, ends[-1])


class TestCropResize:
    def test_interior_crop_has_no_padding(self):
        # box (8, 8, 12, 12): the 2.25 rung's 8-pixel window starts at row and column
        # (8 + 12 + 2 - 8) // 2 = 7 and lies wholly inside the 20 x 20 frame, so nothing is zero
        data = rng(10).uniform(size=(20, 20, 2))
        entry = pipeline.crop_entry(data, np.ones((20, 20)), (8, 8, 12, 12))
        out_hw = (pipeline.SAMPLE_RESOLUTION,) * 2
        np.testing.assert_array_equal(entry.feature, core.bilinear_resize(data[7:15, 7:15], out_hw))
        assert entry.mask.all()
        np.testing.assert_array_equal(entry.label, pipeline._resampled_label(8))

    def test_same_size_bilinear_is_identity(self):
        data = rng(11).uniform(size=(12, 12, 3))
        np.testing.assert_allclose(core.bilinear_resize(data, (12, 12)), data, atol=1e-12)

    @staticmethod
    def bilinear_pixel(data, i, j, out_hw):
        """One output element of the pixel-center-aligned bilinear resample, from its formula."""
        h, w = data.shape[:2]
        ry = min(max((i + 0.5) * (h / out_hw[0]) - 0.5, 0.0), h - 1.0)
        rx = min(max((j + 0.5) * (w / out_hw[1]) - 0.5, 0.0), w - 1.0)
        y0, x0 = int(np.floor(ry)), int(np.floor(rx))
        y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
        wy, wx = ry - y0, rx - x0
        top = data[y0, x0] * (1 - wx) + data[y0, x1] * wx
        bottom = data[y1, x0] * (1 - wx) + data[y1, x1] * wx
        return top * (1 - wy) + bottom * wy

    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(1, 20), st.integers(1, 20),
        st.sampled_from([None, 1, 3]), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    @example(9, 9, 32, 32, 3, 0)  # upsampling, as a small crop to the bank resolution
    @example(40, 40, 32, 32, None, 1)  # downsampling
    @example(7, 11, 3, 17, 1, 2)  # down in rows, up in columns
    def test_bilinear_matches_per_pixel_formula(self, h, w, oh, ow, channels, seed):
        shape = (h, w) if channels is None else (h, w, channels)
        data = rng(seed).uniform(-1, 1, size=shape)
        got = core.bilinear_resize(data, (oh, ow))
        assert got.shape == (oh, ow) + shape[2:]
        for i in range(oh):
            for j in range(ow):
                np.testing.assert_array_equal(got[i, j], self.bilinear_pixel(data, i, j, (oh, ow)))

    def test_bilinear_taps_built_once_per_size_pair(self):
        taps = core._bilinear_taps(9, 32)
        assert core._bilinear_taps(9, 32) is taps
        assert not any(a.flags.writeable for a in taps)

    BAD_SIZES = [
        pytest.param((2.5, 3), "an integer", id="float"),
        pytest.param((True, 3), "an integer", id="bool"),
        pytest.param((0, 3), "at least 1 x 1", id="zero"),
        pytest.param((3, -1), "at least 1 x 1", id="negative"),
    ]

    @pytest.mark.parametrize("out_hw,message", BAD_SIZES)
    def test_bilinear_size_must_be_a_positive_integer(self, out_hw, message):
        with pytest.raises(core.ParameterError, match=f"^output size must be {message}"):
            core.bilinear_resize(np.ones((4, 4, 2)), out_hw)

    @pytest.mark.parametrize("out_hw,message", BAD_SIZES)
    def test_nearest_size_must_be_a_positive_integer(self, out_hw, message):
        with pytest.raises(core.ParameterError, match=f"^output size must be {message}"):
            core.nearest_resize(np.ones((4, 4)), out_hw)

    def test_nearest_keeps_binary(self):
        mask = (rng(12).random((9, 9)) > 0.5).astype(np.uint8)
        out = core.nearest_resize(mask, (16, 16))
        assert set(np.unique(out)) <= {0, 1}
