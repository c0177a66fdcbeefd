"""Independent oracles for every derived expectation, runnable as a suite.

Each check pairs a production code path with a second, deliberately naive
route to the same number: direct summation loops for convolutions, central
finite differences for gradients, dense normal equations for optimizer
targets, exhaustive line scans for step sizes (the step one
``amm.steepest_descent`` iteration takes, and ``glm.gauss_newton_step``'s),
union-find labeling for components, and hand-built replay streams for the
memory policies. A check returns (passed, detail) and never raises on a
mere mismatch.

The registry maps check names to zero-argument callables; the CLI runs the
whole table (optionally filtered) and the acceptance tests re-run the
heavier parametrizations through the same helpers.

The registry is the one home of a derived-expectation oracle:

- a new oracle goes into ``CHECKS``;
- tier-1 runs every entry (``tests/test_selfcheck.py``) and asserts that
  it returns ``True`` itself: a Python bool, which the JSON report can
  serialize, not a numpy one;
- ``tests/test_acceptance.py`` re-runs some entries at heavier parameters,
  as gates;
- unit tests keep the error paths, hand cases and hypothesis properties
  that no check holds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import amm, fusion, geo3d, glm, metrics, scenario as scen
from .core import (
    GRADIENT_EPS,
    BankEntry,
    _component_runs,
    bilinear_resize,
    conv2d,
    gaussian_label,
    im2col,
    median_filter_1d,
    min_bounding_rect,
    nearest_resize,
)
from .pipeline import DENSE_UPDATE_HORIZON, HALT_WINDOW, SAMPLE_RESOLUTION, UPDATE_STRIDE, _resampled_label, label_sigma
from .pipeline import Pipeline, PipelineConfig, QuerySpec, TrackOutput, _Memory, crop_entry, finalize_3d

__all__ = ["CHECKS", "run_checks"]


# -- naive reference implementations -----------------------------------------


def conv2d_naive(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Direct quadruple-loop cross-correlation with zero padding."""
    h, w, c_in = x.shape
    ksz = k.shape[0]
    c_out = k.shape[3]
    r = ksz // 2
    out = np.zeros((h, w, c_out))
    for i in range(h):
        for j in range(w):
            for dy in range(ksz):
                for dx in range(ksz):
                    yy, xx = i + dy - r, j + dx - r
                    if 0 <= yy < h and 0 <= xx < w:
                        for c in range(c_in):
                            for d in range(c_out):
                                out[i, j, d] += x[yy, xx, c] * k[dy, dx, c, d]
    return out


def conv_matrix_naive(feature: np.ndarray, kernel_shape: tuple) -> np.ndarray:
    """Dense matrix A with A @ vec(k) == vec(conv2d(feature, k))."""
    n = int(np.prod(kernel_shape))
    columns = []
    for idx in range(n):
        basis = np.zeros(n)
        basis[idx] = 1.0
        columns.append(conv2d_naive(feature, basis.reshape(kernel_shape)).ravel())
    return np.column_stack(columns)


def fd_gradient(loss_fn, kernel: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss over every kernel entry."""
    grad = np.zeros_like(kernel)
    it = np.nditer(kernel, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = kernel.copy()
        plus[idx] += step
        minus = kernel.copy()
        minus[idx] -= step
        grad[idx] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * step)
        it.iternext()
    return grad


def components_union_find(mask: np.ndarray) -> list[frozenset]:
    """4-connected labeling via union-find, independent of label propagation."""
    h, w = mask.shape
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for r in range(h):
        for c in range(w):
            if mask[r, c]:
                parent[(r, c)] = (r, c)
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            for rr, cc in ((r + 1, c), (r, c + 1)):
                if rr < h and cc < w and mask[rr, cc]:
                    ra, rb = find((r, c)), find((rr, cc))
                    if ra != rb:
                        parent[ra] = rb
    groups: dict[tuple[int, int], set] = {}
    for p in parent:
        groups.setdefault(find(p), set()).add(p)
    return [frozenset(g) for g in groups.values()]


def component_runs_mismatch(mask: np.ndarray) -> str | None:
    """Why the components of ``core._component_runs`` differ from union-find's, or None.

    The runs are grouped by root and each group expanded to its pixels. The
    groups must be the union-find components exactly, and each root must be
    its component's first run: the one holding its first pixel in row-major
    order.
    """
    fg = np.asarray(mask) != 0
    run_start, run_length, root = _component_runs(fg)
    groups: dict[int, set] = {}
    for start, length, r in zip(run_start.tolist(), run_length.tolist(), root.tolist()):
        row, col = divmod(start, fg.shape[1])
        groups.setdefault(r, set()).update((row, c) for c in range(col, col + length))
    want = components_union_find(fg)
    if {frozenset(g) for g in groups.values()} != set(want):
        return f"{len(groups)} run components differ from the {len(want)} union-find components"
    for r, pixels in groups.items():
        row, col = min(pixels)
        if run_start[r] != row * fg.shape[1] + col:
            return f"root run {r} does not start at its component's first pixel {(row, col)}"
    return None


def gaussian_blur_dense(img: np.ndarray, sigma: float) -> np.ndarray:
    """Direct 2D convolution with the full truncated Gaussian kernel."""
    radius = max(1, int(np.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(xs**2) / (2.0 * sigma**2))
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    h, w = img.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy, xx = i + dy, j + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        acc += k2[dy + radius, dx + radius] * img[yy, xx]
            out[i, j] = acc
    return out


def seg_entry(feature, mask) -> BankEntry:
    """An entry for the appearance solver alone: the region and label it does not read are zero."""
    zero = np.zeros(np.shape(mask))
    return BankEntry(feature, mask, zero, zero)


def track_entry(feature, label, region) -> BankEntry:
    """An entry for the tracking solver alone: the mask it does not read is zero."""
    return BankEntry(feature, np.zeros(np.shape(label), dtype=np.uint8), region, label)


def _random_amm_instance(rng, n_samples=None, ksz=None, channels=None, size=6):
    n_samples = n_samples or int(rng.integers(1, 4))
    ksz = ksz or int(rng.choice([1, 3]))
    channels = channels or int(rng.integers(1, 4))
    d = int(rng.integers(1, 4))
    samples = []
    for _ in range(n_samples):
        feature = rng.uniform(-1.0, 1.0, size=(size, size, channels))
        mask = (rng.random((size, size)) > 0.5).astype(np.uint8)
        samples.append(seg_entry(feature, mask))
    kernel = rng.uniform(-1.0, 1.0, size=(ksz, ksz, channels, d))
    return samples, kernel


def _random_glm_instance(rng, ksz=None, channels=None, size=6, region="mixed"):
    ksz = ksz or int(rng.choice([1, 3]))
    channels = channels or int(rng.integers(1, 4))
    n_samples = int(rng.integers(1, 4))
    samples = []
    for _ in range(n_samples):
        feature = rng.uniform(-1.0, 1.0, size=(size, size, channels))
        label = gaussian_label(rng.uniform(1, size - 2, size=2), rng.uniform(1.0, 2.0), (size, size))
        if region == "ones":
            s = np.ones((size, size))
        else:
            s = rng.random((size, size))
        samples.append(track_entry(feature, label, s))
    kernel = rng.uniform(-1.0, 1.0, size=(ksz, ksz, channels, 1))
    return samples, kernel


def solve_seg_normal_equations(samples, kernel_shape):
    """Closed-form ridge optimum via dense normal equations (naive matrices)."""
    n = int(np.prod(kernel_shape))
    lhs = amm.RIDGE * np.eye(n)
    rhs = np.zeros(n)
    for sample in samples:
        a = conv_matrix_naive(sample.feature, kernel_shape)
        w2 = np.repeat(amm.reweight(sample.mask).ravel(), kernel_shape[3]) ** 2
        lhs += a.T @ (w2[:, None] * a)
        rhs += a.T @ (w2 * amm.encode_pseudo_label(sample.mask).ravel())
    return np.linalg.solve(lhs, rhs).reshape(kernel_shape)


def solve_track_normal_equations(samples, kernel_shape):
    """Weighted-least-squares ridge optimum for the pure quadratic (S == 1) case."""
    n = int(np.prod(kernel_shape))
    lhs = glm.RIDGE**2 * np.eye(n)
    rhs = np.zeros(n)
    count = len(samples)
    for sample in samples:
        a = conv_matrix_naive(sample.feature, kernel_shape)
        sw2 = glm.spatial_weight(sample.label).ravel() ** 2
        lhs += a.T @ (sw2[:, None] * a) / count
        rhs += a.T @ (sw2 * sample.label.ravel()) / count
    return np.linalg.solve(lhs, rhs).reshape(kernel_shape)


def track_residual_map(score: np.ndarray, sample) -> np.ndarray:
    """The tracking residual sw * (S * H + (1 - S) * max(0, H) - G), written out apart from the solver's."""
    region = sample.target_region
    blended = region * score + (1.0 - region) * np.maximum(0.0, score)
    return glm.spatial_weight(sample.label) * (blended - sample.label)


def steepest_descent_naive(kernel, samples, n_iter):
    """Exact-line-search descent that convolves every entry for each gradient and step."""
    prepared = [(s.feature, amm.encode_pseudo_label(s.mask), amm.reweight(s.mask)[:, :, None]) for s in samples]
    kernel = np.array(kernel, dtype=np.float64)
    ksz, d = kernel.shape[0], kernel.shape[3]
    for _ in range(n_iter):
        g = amm.RIDGE * kernel
        for feature, target, weights in prepared:
            residual = weights**2 * (conv2d(feature, kernel) - target)
            g = g + (im2col(feature, ksz).T @ residual.reshape(-1, d)).reshape(kernel.shape)
        if float(np.sqrt(np.sum(g**2))) < GRADIENT_EPS:
            break
        g_norm2 = float(np.sum(g**2))
        denom = amm.RIDGE * g_norm2
        for feature, _target, weights in prepared:
            denom += float(np.sum((weights * conv2d(feature, g)) ** 2))
        kernel = kernel - (g_norm2 / denom) * g
    return kernel


class NaiveFit(NamedTuple):
    kernel: np.ndarray
    halvings: int
    # smallest |candidate loss - loss| / loss over the accept-or-halve decisions
    margin: float


def optimize_filter_naive(kernel, samples, n_iter) -> NaiveFit:
    """Safeguarded Gauss-Newton that convolves every sample for each loss, gradient and step.

    Besides the fit it reports the step halvings taken and how clearly each
    accept-or-halve decision was made: near the optimum a step moves the
    loss by less than its rounding error, and rounding alone decides it.
    """
    lam = glm.RIDGE
    scale = 2.0 / len(samples)

    def scores(kernel):
        return [conv2d(s.feature, kernel)[:, :, 0] for s in samples]

    def loss(kernel):
        total = sum(float(np.sum(track_residual_map(h, s) ** 2)) for h, s in zip(scores(kernel), samples))
        return total / len(samples) + lam**2 * float(np.sum(kernel**2))

    def q_maps(kernel):
        return [
            glm.spatial_weight(s.label) * (s.target_region + (1.0 - s.target_region) * (h > 0.0))
            for h, s in zip(scores(kernel), samples)
        ]

    def gradient(kernel):
        g = 2.0 * lam**2 * kernel
        for s, h, q in zip(samples, scores(kernel), q_maps(kernel)):
            adjoint = im2col(s.feature, kernel.shape[0]).T @ (q * track_residual_map(h, s)).reshape(-1, 1)
            g = g + scale * adjoint.reshape(kernel.shape)
        return g

    kernel = np.array(kernel, dtype=np.float64)
    current = loss(kernel)
    halvings = 0
    margin = np.inf
    for _ in range(n_iter):
        g = gradient(kernel)
        if float(np.sqrt(np.sum(g**2))) < GRADIENT_EPS:
            break
        curvature = 2.0 * lam**2 * float(np.sum(g**2))
        for s, q in zip(samples, q_maps(kernel)):
            curvature += scale * float(np.sum((q * conv2d(s.feature, g)[:, :, 0]) ** 2))
        beta = float(np.sum(g**2)) / curvature
        for _halving in range(glm.MAX_STEP_HALVINGS + 1):
            candidate = kernel - beta * g
            candidate_loss = loss(candidate)
            margin = min(margin, abs(candidate_loss - current) / current)
            if candidate_loss <= current:
                kernel, current = candidate, candidate_loss
                break
            beta *= 0.5
            halvings += 1
        else:
            break
    return NaiveFit(kernel, halvings, margin)


def relative_deviation(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / (np.abs(want).max() + 1e-30))


def elementwise_deviation(got: np.ndarray, want: np.ndarray, rtol: float, atol: float = 0.0) -> float:
    """Largest |got - want| / (atol + rtol |want|) over the elements.

    At most 1 exactly when ``np.testing.assert_allclose(got, want, rtol,
    atol)`` passes; an element off a zero bound makes it infinite.
    """
    err = np.abs(got - want)
    bound = atol + rtol * np.abs(want)
    return float(np.divide(err, bound, out=np.where(err > 0, np.inf, 0.0), where=bound > 0).max())


# Relative kernel agreement of a statistics-based solver with its oracle.
SOLVER_TOL = 1e-10
# A Gauss-Newton step whose candidate loss is this close to the current loss
# is accepted or halved by rounding alone, and the solver and its oracle sum
# the loss in different orders; past such a decision they may take
# different, equally good steps.
CLEAR_MARGIN = 1e-12


def descent_deviation(start, bank, n_iter):
    """Relative kernel deviation of steepest_descent from its per-entry oracle, and its fit."""
    got = amm.steepest_descent(start, bank, n_iter)
    want = steepest_descent_naive(start, bank, n_iter)
    return relative_deviation(got, want), got


def optimizer_deviation(start, bank, n_iter):
    """Deviation of optimize_filter from its per-sample oracle, the tolerance it is held to, and both fits.

    The kernels are compared, to SOLVER_TOL, when every decision of the
    oracle cleared CLEAR_MARGIN. Otherwise both runs ended on the rounding
    plateau of the loss around one optimum, and their losses are compared,
    to CLEAR_MARGIN.
    """
    got = glm.optimize_filter(start, bank, n_iter)
    fit = optimize_filter_naive(start, bank, n_iter)
    if fit.margin > CLEAR_MARGIN:
        return relative_deviation(got, fit.kernel), SOLVER_TOL, got, fit
    ours, theirs = (glm.track_loss(k, bank) for k in (got, fit.kernel))
    return abs(ours - theirs) / theirs, CLEAR_MARGIN, got, fit


# -- parametrized check bodies ------------------------------------------------


def check_conv_naive(n_instances=10, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        x = rng.uniform(-1, 1, size=(5, 5, 2))
        k = rng.uniform(-1, 1, size=(3, 3, 2, 3))
        worst = max(worst, elementwise_deviation(conv2d(x, k), conv2d_naive(x, k), rtol=1e-12))
    # the patch matrix both solvers build their statistics from
    for ksz in (1, 3, 5):
        for c_in in (1, 3):
            x = rng.uniform(-1, 1, size=(5, 6, c_in))
            k = rng.uniform(-1, 1, size=(ksz, ksz, c_in, 2))
            got = im2col(x, ksz) @ k.reshape(-1, 2)
            worst = max(worst, elementwise_deviation(got, conv2d_naive(x, k).reshape(-1, 2), rtol=1e-12))
    return worst <= 1.0, f"worst elementwise deviation {worst:.3e} of rtol 1e-12 (conv2d and im2col)"


def check_component_runs(n_instances=20, seed=3):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        mask = (rng.random((16, 16)) > 0.6).astype(np.uint8)
        mismatch = component_runs_mismatch(mask)
        if mismatch is not None:
            return False, mismatch
    return True, f"{n_instances} random masks matched"


def check_min_bounding_rect(n_instances=20, seed=4):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        pts = {(int(rng.integers(0, 12)), int(rng.integers(0, 12))) for _ in range(8)}
        mask = np.zeros((12, 12), dtype=np.uint8)
        for r, c in pts:
            mask[r, c] = 1
        got = min_bounding_rect(mask)
        rows = [p[0] for p in pts]
        cols = [p[1] for p in pts]
        if got != (min(cols), min(rows), max(cols), max(rows)):
            return False, f"bbox {got} wrong for {sorted(pts)}"
    return True, f"{n_instances} random sets matched"


def check_median_filter(n_instances=20, seed=5):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        n = int(rng.integers(1, 40))
        window = int(rng.choice([1, 3, 5, 7]))
        seq = rng.uniform(-5, 5, size=n)
        got = median_filter_1d(seq, window)
        for i in range(n):
            lo, hi = max(0, i - window // 2), min(n, i + window // 2 + 1)
            chunk = sorted(seq[lo:hi])
            m = len(chunk)
            want = chunk[m // 2] if m % 2 else 0.5 * (chunk[m // 2 - 1] + chunk[m // 2])
            if abs(got[i] - want) > 1e-12:
                return False, f"position {i}: {got[i]} != {want}"
    return True, f"{n_instances} random sequences matched"


def check_pseudo_label_boundary(seed=6):
    mask = np.zeros((7, 7), dtype=np.uint8)
    mask[2:5, 2:5] = 1
    enc = amm.encode_pseudo_label(mask)
    want = np.zeros((7, 7))
    for r in range(7):
        for c in range(7):
            if not mask[r, c]:
                continue
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                neighbor_bg = not (0 <= rr < 7 and 0 <= cc < 7) or mask[rr, cc] == 0
                if neighbor_bg:
                    want[r, c] = 1
                    break
    if not np.array_equal(enc[:, :, 1], want):
        return False, "boundary channel disagrees with neighbor scan"
    if want.sum() != 8 or enc[3, 3, 1] != 0:
        return False, "3x3 square should have an 8-pixel ring"
    return True, "boundary ring matches neighbor-scan oracle"


def check_reweight_blur(seed=7):
    mask = np.zeros((12, 12))
    mask[:, 5:] = 1.0
    got = amm.reweight(mask)
    want = amm.BACKGROUND_WEIGHT + (amm.FOREGROUND_WEIGHT - amm.BACKGROUND_WEIGHT) * gaussian_blur_dense(
        mask, amm.BLUR_SIGMA
    )
    err = float(np.abs(got - want).max())
    # monotone across the half-plane boundary, away from the padded right edge
    radius = max(1, int(np.ceil(3.0 * amm.BLUR_SIGMA)))
    monotone = bool(np.all(np.diff(got[:, : 12 - radius], axis=1) >= -1e-12))
    return err < 1e-12 and monotone, f"max deviation {err:.3e}, monotone across boundary: {monotone}"


def check_seg_loss_naive(n_instances=10, seed=8):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        samples, kernel = _random_amm_instance(rng)
        kernel = rng.uniform(-1, 1, size=kernel.shape[:3] + (3,))
        got = amm.seg_loss(kernel, samples)
        want = 0.5 * amm.RIDGE * float(np.sum(kernel**2))
        for s in samples:
            weights = amm.reweight(s.mask)
            target = amm.encode_pseudo_label(s.mask)
            pred = conv2d_naive(s.feature, kernel)
            for i in range(pred.shape[0]):
                for j in range(pred.shape[1]):
                    for d in range(pred.shape[2]):
                        want += 0.5 * (weights[i, j] * (pred[i, j, d] - target[i, j, d])) ** 2
        worst = max(worst, abs(got - want) / (abs(want) + 1e-30))
    return bool(worst < 1e-12), f"max relative deviation {worst:.3e}"


def check_seg_gradient_fd(n_instances=30, seed=9):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        n_samples = int(rng.integers(1, 6))
        ksz = int(rng.choice([1, 3]))
        channels = int(rng.choice([1, 2, 4]))
        size = int(rng.integers(4, 9))
        samples = []
        for _ in range(n_samples):
            feature = rng.uniform(-1, 1, size=(size, size, channels))
            mask = (rng.random((size, size)) > 0.5).astype(np.uint8)
            samples.append(seg_entry(feature, mask))
        kernel = rng.uniform(-1, 1, size=(ksz, ksz, channels, 3))
        got = amm.seg_gradient(kernel, samples)
        want = fd_gradient(lambda kk: amm.seg_loss(kk, samples), kernel)
        worst = max(worst, elementwise_deviation(got, want, rtol=1e-5, atol=1e-8))
    return worst <= 1.0, f"worst elementwise deviation {worst:.3e} of rtol 1e-5, atol 1e-8 ({n_instances} instances)"


def check_seg_stationarity(seed=10):
    rng = np.random.default_rng(seed)
    samples, _ = _random_amm_instance(rng, n_samples=2, ksz=3, channels=2, size=4)
    shape = (3, 3, 2, 3)
    optimum = solve_seg_normal_equations(samples, shape)
    g = amm.seg_gradient(optimum, samples)
    norm = float(np.sqrt(np.sum(g**2)))
    return norm < 1e-8, f"gradient norm at closed-form optimum: {norm:.3e}"


def descent_step(kernel: np.ndarray, samples) -> tuple[np.ndarray, float]:
    """The gradient g at ``kernel`` and the step alpha along -g that one ``amm.steepest_descent``
    iteration takes: <sigma0 - sigma1, g> / ||g||^2."""
    g = amm.seg_gradient(kernel, samples)
    moved = kernel - amm.steepest_descent(kernel, samples, 1)
    return g, float(np.sum(moved * g)) / float(np.sum(g**2))


def check_steepest_step_scan(n_instances=5, seed=11, scan_points=10_000):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        samples, _ = _random_amm_instance(rng, n_samples=1, ksz=1, channels=1, size=4)
        kernel = rng.uniform(-1, 1, size=(1, 1, 1, 3))
        g, alpha = descent_step(kernel, samples)
        lambdas = np.linspace(0.0, 2.0 * alpha, scan_points)
        losses = [amm.seg_loss(kernel - lam * g, samples) for lam in lambdas]
        at_alpha = amm.seg_loss(kernel - alpha * g, samples)
        best = min(losses)
        if at_alpha > best * (1 + 1e-12) + 1e-15:
            return False, f"alpha loses to scan: {at_alpha} > {best}"
        gap = abs(lambdas[int(np.argmin(losses))] - alpha)
        if gap > lambdas[1] - lambdas[0] + 1e-15:
            return False, f"alpha {alpha} off scan argmin by {gap}"
    return True, f"alpha at or below all {scan_points} scanned points on {n_instances} instances"


def check_steepest_special_cases():
    # one all-foreground pixel of unit feature: the denominator collapses to
    # (w^2 + delta) ||g||^2, with w the pixel's loss weight
    one = np.ones((1, 1), dtype=np.uint8)
    sample = seg_entry(np.ones((1, 1, 1)), one)
    w = amm.BACKGROUND_WEIGHT + (amm.FOREGROUND_WEIGHT - amm.BACKGROUND_WEIGHT) * float(
        gaussian_blur_dense(one, amm.BLUR_SIGMA)[0, 0]
    )
    _, alpha = descent_step(np.zeros((1, 1, 1, 3)), [sample])
    want = 1.0 / (w**2 + amm.RIDGE)
    if abs(alpha - want) > 1e-12:
        return False, f"identity case alpha {alpha} != 1/(w^2 + delta) = {want}"
    # zero features, pure ridge: the gradient is delta * sigma and alpha = 1 / delta
    blank = seg_entry(np.zeros((1, 1, 1)), one)
    _, alpha = descent_step(np.array([[[[0.7, -0.3, 0.2]]]]), [blank])
    if abs(alpha - 1.0 / amm.RIDGE) > 1e-12:
        return False, f"pure ridge alpha {alpha} != 1/delta = {1.0 / amm.RIDGE}"
    return True, "alpha = 1/(w^2 + delta) (identity) and alpha = 1/delta (ridge) exact"


def check_steepest_convergence(n_instances=3, seed=12, n_iter=200, tol=1e-6):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        samples, _ = _random_amm_instance(rng, n_samples=2, ksz=1, channels=2, size=4)
        shape = (1, 1, 2, 3)
        best = amm.seg_loss(solve_seg_normal_equations(samples, shape), samples)
        kernel = np.zeros(shape)
        losses = [amm.seg_loss(kernel, samples)]
        for _ in range(n_iter):
            kernel = amm.steepest_descent(kernel, samples, 1)
            losses.append(amm.seg_loss(kernel, samples))
        if any(b > a + 1e-12 for a, b in zip(losses, losses[1:])):
            return False, "loss increased during descent"
        gap = losses[-1] - best
        if gap > tol:
            return False, f"loss gap to closed form {gap:.3e} > {tol}"
    return True, f"reached closed-form ridge optimum within {tol} on {n_instances} instances"


def check_steepest_monotone(n_instances=100, seed=13, n_iter=10):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        samples, kernel = _random_amm_instance(rng)
        kernel = rng.uniform(-1, 1, size=kernel.shape[:3] + (3,))
        prev = amm.seg_loss(kernel, samples)
        for _ in range(n_iter):
            kernel = amm.steepest_descent(kernel, samples, 1)
            cur = amm.seg_loss(kernel, samples)
            if cur > prev + 1e-12:
                return False, f"loss increased {prev} -> {cur}"
            prev = cur
    return True, f"loss non-increasing over {n_instances} random instances"


def window_by_pixels(data: np.ndarray, center, side: int) -> tuple[np.ndarray, float]:
    """The zero-filled square window of ``side`` starting at round(center - (side - 1) / 2), copied
    pixel by pixel, and the fraction of its area outside the frame, from the intersection's extent."""
    h, w = data.shape[:2]
    r0 = int(np.floor(center[0] - (side - 1) / 2.0 + 0.5))
    c0 = int(np.floor(center[1] - (side - 1) / 2.0 + 0.5))
    window = np.zeros((side, side) + data.shape[2:])
    for i in range(side):
        for j in range(side):
            if 0 <= r0 + i < h and 0 <= c0 + j < w:
                window[i, j] = data[r0 + i, c0 + j]
    inter_r = max(0, min(r0 + side, h) - max(r0, 0))
    inter_c = max(0, min(c0 + side, w) - max(c0, 0))
    return window, 1.0 - inter_r * inter_c / float(side * side)


def check_crop_ladder():
    # a thin strip in the corner, box (0, 0, 15, 1), and a whole-frame mask: the 1.5x window of
    # each box pads more than half, so both settle at the 1.44 rung
    strip = np.zeros((64, 64), dtype=np.uint8)
    strip[0:2, 0:16] = 1
    rng = np.random.default_rng(0)
    out_hw = (SAMPLE_RESOLUTION,) * 2
    for name, mask, center, longest in (
        ("corner strip", strip, (0.5, 7.5), 16),
        ("whole frame", np.ones((32, 32), dtype=np.uint8), (15.5, 15.5), 32),
    ):
        feature = rng.uniform(size=mask.shape + (2,))
        fractions = [window_by_pixels(mask, center, int(round(np.sqrt(s) * longest)))[1] for s in (2.25, 1.44)]
        if not fractions[0] > 0.5 >= fractions[1]:
            return False, f"{name}: expected fallback from 2.25 to 1.44, padded fractions {fractions}"
        side = int(round(1.2 * longest))
        entry = crop_entry(feature, mask, min_bounding_rect(mask))
        if not (np.array_equal(entry.feature, bilinear_resize(window_by_pixels(feature, center, side)[0], out_hw))
                and np.array_equal(entry.mask, nearest_resize(window_by_pixels(mask, center, side)[0], out_hw))
                and np.array_equal(entry.label, _resampled_label(side))):
            return False, f"{name}: entry is not the oracle's window at the 1.44 rung around the box"
    return True, "ladder fallback matches the area oracle; entries are its windows"


def empty_banks(static: BankEntry) -> _Memory:
    """A memory value with empty FIFOs and zero 1x1 kernels, for replaying admissions."""
    channels = static.feature.shape[2]
    return _Memory((), static, (), np.zeros((1, 1, channels, 3)), np.zeros((1, 1, channels, 1)))


def check_amm_fifo_replay(seed=14):
    rng = np.random.default_rng(seed)
    static = track_entry(np.zeros((4, 4, 1)), np.zeros((4, 4)), np.ones((4, 4)))
    mem = empty_banks(static)
    admitted = []
    for i in range(40):
        result = fusion.SegmentationResult(np.full((4, 4), rng.uniform(0.3, 0.9)))
        if amm.amm_admit(result):
            mem = mem.admit(seg_entry(np.full((4, 4, 1), float(i)), result.mask), capacity=5)
            admitted.append(i)
    want = admitted[-5:]
    got = [int(s.feature[0, 0, 0]) for s in mem.amm_entries]
    return got == want, f"bank holds {got}, expected admitted suffix {want}"


def check_track_loss_naive(n_instances=10, seed=15):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        samples, kernel = _random_glm_instance(rng)
        got = glm.track_loss(kernel, samples)
        want = glm.RIDGE**2 * float(np.sum(kernel**2))
        acc = 0.0
        for s in samples:
            score = conv2d_naive(s.feature, kernel)[:, :, 0]
            for i in range(score.shape[0]):
                for j in range(score.shape[1]):
                    sw = glm.W_BG + (glm.W_FG - glm.W_BG) * s.label[i, j]
                    blended = s.target_region[i, j] * score[i, j] + (
                        1 - s.target_region[i, j]
                    ) * max(0.0, score[i, j])
                    acc += (sw * (blended - s.label[i, j])) ** 2
        want += acc / len(samples)
        worst = max(worst, abs(got - want) / (abs(want) + 1e-30))
    return bool(worst < 1e-12), f"max relative deviation {worst:.3e}"


def check_track_gradient_fd(n_instances=30, seed=16):
    rng = np.random.default_rng(seed)
    worst = 0.0
    tried = 0
    while tried < n_instances:
        samples, kernel = _random_glm_instance(rng)
        # keep scores away from the hinge kink so the loss is smooth locally
        if min(float(np.abs(conv2d(s.feature, kernel)[:, :, 0]).min()) for s in samples) < 0.01:
            continue
        tried += 1
        got = glm.track_gradient(kernel, samples)
        want = fd_gradient(lambda kk: glm.track_loss(kk, samples), kernel)
        worst = max(worst, elementwise_deviation(got, want, rtol=1e-5, atol=1e-8))
    return worst <= 1.0, f"worst elementwise deviation {worst:.3e} of rtol 1e-5, atol 1e-8 ({n_instances} instances)"


def check_track_gradient_wls(n_instances=10, seed=17):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        samples, kernel = _random_glm_instance(rng, region="ones")
        got = glm.track_gradient(kernel, samples)
        # independent weighted-least-squares gradient via dense matrices
        want = 2.0 * glm.RIDGE**2 * kernel.ravel()
        for s in samples:
            a = conv_matrix_naive(s.feature, kernel.shape)
            sw2 = glm.spatial_weight(s.label).ravel() ** 2
            want = want + (2.0 / len(samples)) * a.T @ (sw2 * (a @ kernel.ravel() - s.label.ravel()))
        worst = max(worst, elementwise_deviation(got.ravel(), want, rtol=1e-10))
    return worst <= 1.0, f"worst elementwise deviation {worst:.3e} of rtol 1e-10"


def check_gauss_newton_beta_scan(n_instances=5, seed=18, scan_points=20_001):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        samples, kernel = _random_glm_instance(rng, ksz=1, channels=1, size=5)
        g, beta = glm.gauss_newton_step(kernel, samples)

        # frozen quadratic model: residuals linearized at the current filter
        frozen_q = []
        for s in samples:
            score = conv2d(s.feature, kernel)[:, :, 0]
            region = s.target_region
            frozen_q.append(glm.spatial_weight(s.label) * (region + (1 - region) * (score > 0)))
        base_residuals = np.concatenate(
            [track_residual_map(conv2d(s.feature, kernel)[:, :, 0], s).ravel() for s in samples]
        )
        directions = np.concatenate([(q * conv2d(s.feature, g)[:, :, 0]).ravel() for q, s in zip(frozen_q, samples)])

        # the model at every grid point at once, one row per point
        grid = np.linspace(0.0, 2.0 * beta, scan_points)
        fit = np.sum((base_residuals - grid[:, None] * directions) ** 2, axis=1) / len(samples)
        values = fit + glm.RIDGE**2 * np.sum((kernel.ravel() - grid[:, None] * g.ravel()) ** 2, axis=1)
        best = grid[int(np.argmin(values))]
        step = grid[1] - grid[0]
        if abs(best - beta) > step + 1e-15:
            return False, f"beta {beta} off frozen-model argmin {best} by more than one step"
    return True, f"beta matches the frozen-quadratic scan on {n_instances} instances"


def check_gauss_newton_ridge_case():
    rng = np.random.default_rng(19)
    samples, kernel = _random_glm_instance(rng, ksz=1, channels=2, size=4)
    # zero features: every score and its Jacobian vanish, only the ridge curves the model
    samples = [replace(s, feature=np.zeros_like(s.feature)) for s in samples]
    _, beta = glm.gauss_newton_step(kernel, samples)
    want = 1.0 / (2.0 * glm.RIDGE**2)
    return abs(beta - want) < 1e-12, f"ridge-only beta {beta}, expected {want}"


def check_gauss_newton_convergence(n_instances=3, seed=20, n_iter=50, tol=1e-6):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        samples, _ = _random_glm_instance(rng, ksz=1, channels=2, size=4, region="ones")
        shape = (1, 1, 2, 1)
        best = glm.track_loss(solve_track_normal_equations(samples, shape), samples)
        kernel = np.zeros(shape)
        losses = [glm.track_loss(kernel, samples)]
        for _ in range(n_iter):
            kernel = glm.optimize_filter(kernel, samples, 1)
            losses.append(glm.track_loss(kernel, samples))
        if any(b > a + 1e-12 for a, b in zip(losses, losses[1:])):
            return False, "loss increased during Gauss-Newton"
        gap = losses[-1] - best
        if gap > tol:
            return False, f"loss gap to WLS-ridge optimum {gap:.3e} > {tol}"
    return True, f"reached WLS-ridge optimum within {tol} on {n_instances} instances, loss non-increasing"


def check_optimize_filter_monotone(n_instances=100, seed=21, n_iter=8):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        samples, kernel = _random_glm_instance(rng)
        before = glm.track_loss(kernel, samples)
        after = glm.track_loss(glm.optimize_filter(kernel, samples, n_iter), samples)
        if after > before + 1e-12:
            return False, f"loss increased {before} -> {after}"
    return True, f"final loss <= initial loss on {n_instances} random instances"


def check_descent_vs_per_entry_loops(n_instances=20, seed=29):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        samples, kernel = _random_amm_instance(rng, n_samples=int(rng.integers(1, 9)))
        start = rng.uniform(-1, 1, size=kernel.shape[:3] + (3,))
        for n_iter in (3, 10):
            worst = max(worst, descent_deviation(start, samples, n_iter)[0])
    return worst <= SOLVER_TOL, f"max relative kernel deviation {worst:.3e} over {n_instances} banks"


def check_optimizer_vs_per_sample_loops(n_instances=20, seed=30):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        samples, kernel = _random_glm_instance(rng)
        for n_iter in (3, 10):
            deviation, tolerance, _, _ = optimizer_deviation(kernel, samples, n_iter)
            worst = max(worst, deviation / tolerance)
    return worst <= 1.0, f"worst deviation {worst:.3e} of its tolerance over {n_instances} banks"


def check_glm_crop_geometry(seed=22):
    rng = np.random.default_rng(seed)
    feature = rng.uniform(-1, 1, size=(40, 40, 2))
    prob = np.zeros((40, 40))
    prob[10:21, 14:25] = 0.9
    # a stray component away from the box, which the mask keeps
    prob[33:36, 2:5] = 0.8
    result = fusion.SegmentationResult(prob)
    if result.bbox != (14, 10, 24, 20):
        return False, f"setup broken: box {result.bbox} is not the largest component's"
    pipe = Pipeline(QuerySpec(feature, result.mask), _unit_kernel_config())
    # an ingest follows the frame's peak into the history (see Pipeline.step_frame)
    memory = pipe._ingest(replace(pipe.initial_memory, responses=(1.0,)), feature, result)
    if memory.amm_entries[-1] is not memory.glm_dynamic[-1]:
        return False, "one ingest put different entries in the two banks"
    # sigma rule: crop side of 30 pixels gives a label sigma of 5
    if abs(label_sigma(30) - 5.0) > 1e-15:
        return False, "label sigma rule broken"
    return True, "one ingest puts one entry in both banks; sigma rule holds"


def check_glm_update_source():
    base = [1.0] * 30
    if glm.glm_update_source(base) != "dynamic":
        return False, "all-equal peaks should trust dynamic snapshots"
    dead = [1.0] + [0.0] * 30
    if glm.glm_update_source(dead) != "static":
        return False, "collapsed responses should revert to the static snapshot"
    # exactly 15 high frames of 25 gives 0.6, not > 0.6
    history = [1.0] * 30 + [0.0] * 10 + [1.0] * 15
    running = np.maximum.accumulate(history)
    high = [h >= 0.5 * m for h, m in zip(history, running)][-glm.SOURCE_WINDOW :]
    if sum(high) != 15:
        return False, f"replay setup broken: {sum(high)} high frames, wanted 15"
    if glm.glm_update_source(history) != "static":
        return False, "fraction exactly 0.6 must not count as consistent"
    if glm.glm_update_source([1.0] * 30 + [0.0] * 9 + [1.0] * 16) != "dynamic":
        return False, "16 of 25 high frames should trust dynamic snapshots"
    return True, "source selection matches the replayed threshold rule"


def check_fusion_elementwise(seed=23):
    # per-pixel replay of the three-step form: the score copied into each
    # appearance channel as max(0, H), summed, then the logistic of the mean;
    # fuse receives the channel mean as its appearance logit
    rng = np.random.default_rng(seed)
    appearance = rng.uniform(-2, 2, size=(5, 6, 3))
    score = rng.uniform(-2, 2, size=(5, 6))
    prob = fusion.fuse(appearance.mean(axis=2), score)
    for i in range(5):
        for j in range(6):
            encoded = max(0.0, score[i, j])
            mean = sum(appearance[i, j, c] + encoded for c in range(3)) / 3.0
            want = 1.0 / (1.0 + np.exp(-mean))
            if abs(prob[i, j] - want) > 1e-15:
                return False, f"fuse deviates from the per-pixel three-step formula at ({i}, {j})"
    return True, "fuse matches the per-pixel encode, sum and decode loop"


def check_largest_component_bbox():
    prob = np.full((8, 8), 0.1)
    prob[1, 1:6] = 0.9      # 5-pixel row component
    prob[5:6, 1:4] = 0.9    # 3-pixel row component
    res = fusion.SegmentationResult(prob)
    if res.bbox != (1, 1, 5, 1):
        return False, f"largest-component bbox wrong: {res.bbox}"
    # tie: two 2x1 components, the row-major first one wins
    prob = np.full((6, 6), 0.1)
    prob[0, 4:6] = 0.9
    prob[3, 0:2] = 0.9
    res = fusion.SegmentationResult(prob)
    if res.bbox != (4, 0, 5, 0):
        return False, f"tie-break bbox wrong: {res.bbox}"
    return True, "largest component and row-major tie-break verified"


def extract_by_union_find(prob: np.ndarray) -> tuple[np.ndarray, tuple | None, float]:
    """Mask, box and confidence of the thresholded map.

    The box is the largest union-find component's; size ties go to the
    component whose first pixel comes first in row-major order.
    """
    mask = (prob >= fusion.MASK_THRESHOLD).astype(np.uint8)
    if not mask.any():
        return mask, None, 0.0
    largest = min(components_union_find(mask), key=lambda component: (-len(component), min(component)))
    rows, cols = zip(*largest)
    return mask, (min(cols), min(rows), max(cols), max(rows)), float(prob[mask != 0].mean())


def check_extract_matches_union_find(n_instances=200, seed=31):
    rng = np.random.default_rng(seed)
    # empty, full, one row, one column, and two equal components (the row-major first wins)
    tie = np.full((4, 5), 0.2)
    tie[0, 2:5] = tie[1:4, 0] = 0.7
    probs = [np.full((5, 7), 0.3), np.full((5, 7), 0.8), rng.random((1, 17)), rng.random((17, 1)), tie]
    for _ in range(n_instances):
        shape = tuple(rng.integers(1, 25, size=2))
        probs.append(rng.random(shape) ** rng.uniform(0.3, 3.0))
    for i, prob in enumerate(probs):
        res = fusion.SegmentationResult(prob)
        mask, bbox, s_conf = extract_by_union_find(prob)
        if res.mask.dtype != mask.dtype or not np.array_equal(res.mask, mask):
            return False, f"map {i} {prob.shape}: mask differs from the threshold"
        if res.bbox != bbox:
            return False, f"map {i} {prob.shape}: bbox {res.bbox}, union-find gives {bbox}"
        if res.s_conf != s_conf:
            return False, f"map {i} {prob.shape}: s_conf {res.s_conf!r}, union-find gives {s_conf!r}"
    return True, f"{len(probs)} maps bit-equal in mask, bbox and s_conf"


def check_temporal_localize():
    # two plateaus: the later one is the answer
    seq = [0.0] * 10 + [1.0] * 11 + [0.0] * 19 + [1.0] * 11 + [0.0] * 5
    got = fusion.temporal_localize(seq)
    if got != (40, 50):
        return False, f"expected the last plateau (40, 50), got {got}"
    # plateau of width 3 survives the width-5 median
    spike = [0.0] * 20 + [1.0] * 3 + [0.0] * 20
    got = fusion.temporal_localize(spike)
    if got is None or not (20 <= got[0] <= got[1] <= 22):
        return False, f"3-wide plateau lost: {got}"
    # scale invariance
    rng = np.random.default_rng(24)
    seq = np.abs(rng.normal(size=60))
    a = fusion.temporal_localize(seq)
    b = fusion.temporal_localize(7.3 * seq)
    if a != b:
        return False, "interval changed under positive rescaling"
    if fusion.temporal_localize([0.0] * 10) is not None:
        return False, "all-zero sequence must yield no interval"
    return True, "last-plateau, median-filter, and scale-invariance checks hold"


def check_sim3_recovery(n_instances=20, seed=25):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        rot = scen._random_rotation(rng)
        scale = float(rng.uniform(0.3, 3.0))
        t = rng.uniform(-5, 5, size=3)
        want = geo3d.Sim3Transform(scale, rot, t)
        src = rng.uniform(-2, 2, size=(20, 3))
        got = geo3d.align_sim3(src, want.apply(src))
        err = max(
            abs(got.scale - scale),
            float(np.abs(got.rotation - rot).max()),
            float(np.abs(got.translation - t).max()),
        )
        if err > 1e-9:
            return False, f"noiseless recovery error {err:.3e}"
    return True, f"recovered {n_instances} random similarity transforms to 1e-9"


def check_sim3_noisy(n_seeds=50, sigma=0.01):
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        rot = scen._random_rotation(rng)
        scale = float(rng.uniform(0.5, 2.0))
        t = rng.uniform(-5, 5, size=3)
        want = geo3d.Sim3Transform(scale, rot, t)
        src = rng.uniform(-2, 2, size=(100, 3))
        dst = want.apply(src) + rng.normal(0.0, sigma, size=(100, 3))
        got = geo3d.align_sim3(src, dst)
        residual = got.apply(src) - dst
        rms = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
        if rms > 0.02:
            return False, f"seed {seed}: RMS residual {rms:.4f} > 0.02"
        if abs(got.scale - scale) / scale > 0.01:
            return False, f"seed {seed}: scale off by {abs(got.scale - scale) / scale:.4f}"
    return True, f"noisy recovery within gates across {n_seeds} seeds"


def _random_camera(rng, h=12, w=12):
    rot = scen._random_rotation(rng)
    pose = np.eye(4)
    pose[:3, :3] = rot
    pose[:3, 3] = rng.uniform(-3, 3, size=3)
    f = float(rng.uniform(100, 1000))
    intrinsics = np.array([[f, 0, w / 2.0], [0, f, h / 2.0], [0, 0, 1.0]])
    depth = rng.uniform(0.5, 5.0, size=(h, w))
    return geo3d.CameraFrame(pose, intrinsics, depth, np.zeros((h, w)))


def check_projection_round_trip(n_instances=100, seed=26):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        cam = _random_camera(rng)
        t_eta = geo3d.Sim3Transform(
            float(rng.uniform(0.5, 2.0)), scen._random_rotation(rng), rng.uniform(-2, 2, size=3)
        )
        u, v = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        world = geo3d.backproject(cam, u, v, t_eta)
        # forward projection oracle: camera coords, then perspective divide
        back = t_eta.inverse().apply(world)
        cam_pt = cam.pose[:3, :3].T @ (back - cam.pose[:3, 3])
        uv = cam.intrinsics @ cam_pt
        uv = uv[:2] / uv[2]
        worst = max(worst, float(np.abs(uv - [u, v]).max()))
        worst = max(worst, abs(cam_pt[2] - cam.depth[v, u]))
        # displacement round trip: delta of a lifted pixel equals its camera ray
        delta = geo3d.relative_displacement(cam, back)
        ray = cam.depth[v, u] * np.linalg.solve(cam.intrinsics, np.array([u, v, 1.0]))
        worst = max(worst, float(np.abs(delta - ray).max()))
    return worst < 1e-9, f"worst round-trip error {worst:.3e} over {n_instances} cameras"


def check_aggregate_oracle(seed=27):
    rng = np.random.default_rng(seed)
    # per view: a point, then its semantic and geometric confidences
    views = [(rng.uniform(-3, 3, size=3), float(rng.uniform(0.1, 1)), float(rng.uniform(0.1, 1))) for _ in range(6)]
    points = np.stack([point for point, _, _ in views])
    weights = [s_conf * g_conf for _, s_conf, g_conf in views]
    got = geo3d.aggregate(points, weights)
    num = np.zeros(3)
    den = 0.0
    for point, weight in zip(points, weights):
        num += weight * point
        den += weight
    want = num / den
    err = float(np.abs(got - want).max())
    inside = bool(np.all(got >= points.min(axis=0) - 1e-12) and np.all(got <= points.max(axis=0) + 1e-12))
    return err < 1e-12 and inside, f"deviation {err:.3e}, inside convex hull: {inside}"


def check_semantic_confidence_hand_case():
    # the mask holds the pixel at exactly 0.5, which the mean above LAMBDA_THR leaves out
    result = fusion.SegmentationResult(np.array([[0.9, 0.6], [0.5, 0.0]]))
    got = geo3d.semantic_confidence(result)
    want = ((0.9 + 0.6 + 0.5) / 3.0 + (0.9 + 0.6) / 2.0 + 0.9) / 3.0
    return abs(got - want) < 1e-12, f"got {got}, expected {want}"


# -- pipeline and harness checks ----------------------------------------------


def _small_identity_params(n_frames=8):
    return scen.ScenarioParams(n_frames=n_frames, canvas=(32, 32), object_size=13)


def _unit_kernel_config():
    return PipelineConfig(kernel_size=1)


def check_pipeline_identity():
    scenario = scen.gen_scenario(7, _small_identity_params())
    pipe = Pipeline(scenario.query, _unit_kernel_config())
    result = pipe.step_frame(scenario.frames[0].feature, 0)
    if result.bbox is None:
        return False, "no detection on the query frame itself"
    iou = metrics.box_iou(result.bbox, scenario.frames[0].gt_bbox)
    if result.s_conf <= amm.ADMIT_THRESHOLD:
        return False, f"confidence {result.s_conf:.3f} not above the admit threshold"
    if iou != 1.0:
        return False, f"IoU on the identity frame is {iou:.3f}, not 1.0"
    return True, f"s_conf {result.s_conf:.3f}, IoU 1.0 on the identity frame"


def check_pipeline_null_frame():
    scenario = scen.gen_scenario(7, _small_identity_params())
    pipe = Pipeline(scenario.query, _unit_kernel_config())
    size_before = len(pipe.memory.amm_entries)
    background = scenario.frames[0].feature.copy()
    background[:, :, :] = background[0, 0, :]  # ambient texture only, no target
    result = pipe.step_frame(background, 0)
    grew = len(pipe.memory.amm_entries) != size_before or pipe.memory.glm_dynamic
    if result.mask.any() or result.s_conf != 0.0 or result.bbox is not None:
        return False, f"background frame produced a detection: s_conf {result.s_conf}"
    if grew:
        return False, "banks grew on a background frame"
    return True, "background frame: empty mask, zero confidence, no bank growth"


def check_pipeline_initialization():
    scenario = scen.gen_scenario(3, _small_identity_params())
    pipe = Pipeline(scenario.query, _unit_kernel_config())
    if len(pipe.memory.amm_entries) != 4:
        return False, f"bank holds {len(pipe.memory.amm_entries)} entries, expected query + 3 augmentations"
    query = scenario.query
    base = crop_entry(query.feature, query.mask, min_bounding_rect(query.mask))
    if pipe.memory.glm_static is not pipe.memory.amm_entries[0]:
        return False, "static snapshot is not the first appearance entry"
    if not np.array_equal(pipe.memory.glm_static.feature, base.feature):
        return False, "static snapshot does not equal the un-augmented query entry"
    return pipe.memory.finite, "bank seeded with 4 samples; filters finite"


def check_update_cadence():
    scenario = scen.gen_scenario(5, _small_identity_params())
    pipe = Pipeline(scenario.query)
    want = [t for t in range(201) if t < DENSE_UPDATE_HORIZON or t % UPDATE_STRIDE == 0]
    got = [t for t in range(201) if pipe._is_update_frame(t)]
    return got == want, f"update frames over 0..200: {len(got)} events, expected {len(want)}"


def check_halt_revert():
    scenario = scen.gen_scenario(11, _small_identity_params(n_frames=4))
    pipe = Pipeline(scenario.query, _unit_kernel_config())
    initial_amm = [s.feature.copy() for s in pipe.memory.amm_entries]
    target = scenario.frames[0].feature
    background = target.copy()
    background[:, :, :] = background[0, 0, :]
    for t in range(3):
        pipe.step_frame(target, t)
    if len(pipe.memory.amm_entries) <= len(initial_amm):
        return False, "bank did not grow on confident frames"
    for t in range(3, 3 + HALT_WINDOW):
        pipe.step_frame(background, t)
    if not pipe.halted:
        return False, "halt did not trigger on sustained low confidence"
    if pipe.memory is not pipe.initial_memory or pipe.memory.glm_dynamic:
        return False, "memory was not reverted to its post-initialization value"
    for got, want in zip(pipe.memory.amm_entries, initial_amm):
        if not np.array_equal(got.feature, want):
            return False, "reverted bank entries are not bit-identical"
    pipe.step_frame(target, 3 + HALT_WINDOW)
    if pipe.memory is not pipe.initial_memory:
        return False, "memory changed after the halt"
    return True, "halt reverts banks bit-identically and freezes them"


def check_glm_static_immutable(seed=28):
    rng = np.random.default_rng(seed)
    static = track_entry(
        rng.uniform(-1, 1, size=(6, 6, 2)),
        gaussian_label((2.5, 2.5), 1.0, (6, 6)),
        np.ones((6, 6)),
    )
    frozen = (static.feature.copy(), static.label.copy(), static.target_region.copy())
    mem = empty_banks(static)
    for _ in range(10):
        dynamic = track_entry(
            rng.uniform(-1, 1, size=(6, 6, 2)),
            gaussian_label((2.5, 2.5), 1.0, (6, 6)),
            rng.random((6, 6)),
        )
        mem = mem.admit(dynamic, capacity=4)
        glm.optimize_filter(np.zeros((1, 1, 2, 1)), mem.glm_samples, 2)
        if len(mem.glm_samples) > 4:
            return False, f"bank size {len(mem.glm_samples)} exceeded capacity"
        if mem.glm_static is not static or mem.glm_dynamic[-1] is not dynamic:
            return False, "static snapshot replaced or newest snapshot not last"
    same = all(np.array_equal(a, b) for a, b in zip(frozen, (static.feature, static.label, static.target_region)))
    if not same:
        return False, "static snapshot mutated"
    if len(mem.glm_dynamic) != 3:
        return False, f"dynamic FIFO holds {len(mem.glm_dynamic)}, expected capacity - 1"
    return True, "static snapshot bit-identical, FIFO capped at capacity - 1"


def check_scenario_determinism():
    a = scen.gen_scenario(9, scen.preset_params("identity"))
    b = scen.gen_scenario(9, scen.preset_params("identity"))
    return a == b, "same seed reproduces identical frames"


def check_drift_similarity_decay():
    scenario = scen.gen_scenario(5, scen.preset_params("drift"))
    q = scenario.query.feature[24, 24, :]
    sims = []
    for sig in scenario.features[:, 24, 24]:
        sims.append(float(q @ sig / (np.linalg.norm(q) * np.linalg.norm(sig))))
    diffs = np.diff(sims)
    monotone = bool(np.all(diffs <= 1e-12))
    span = sims[0] - sims[-1]
    return monotone and span > 0.5, f"cosine decays monotonically by {span:.3f}"


def check_eval2d_hand_cases():
    scenario = scen.gen_scenario(13, scen.preset_params("identity"))
    gt = scen.ground_truth_track(scenario)
    report = metrics.eval_2d(gt, scenario)
    if (report.t_ap25, report.st_ap25, report.recovery_pct, report.success_pct) != (1.0, 1.0, 100.0, 100.0):
        return False, f"ground-truth track does not score perfectly: {report}"
    # prediction shifted left by half the annotated length: tIoU 1/3, and with
    # perfect boxes only inside the claimed interval (an empty map elsewhere),
    # recovery is 50%; the target is annotated on frames 24-47 only
    masks = np.concatenate([np.zeros_like(scenario.gt_masks[:24]), scenario.gt_masks[24:]])
    shifted = replace(scenario, gt_masks=masks)
    empty = fusion.SegmentationResult(np.zeros_like(gt.results[0].prob))
    results = [r if 12 <= t <= 35 else empty for t, r in enumerate(gt.results)]
    pred = TrackOutput(results, (12, 35))
    t_iou = metrics.temporal_iou((12, 35), shifted.gt_interval)
    if abs(t_iou - 1.0 / 3.0) > 1e-12:
        return False, f"temporal IoU {t_iou} != 1/3"
    report = metrics.eval_2d(pred, shifted)
    if report.t_ap25 != 1.0 or abs(report.recovery_pct - 50.0) > 1e-9:
        return False, f"half-overlap case wrong: {report}"
    return True, "perfect and half-overlap hand cases hold"


def check_geo_aggregation():
    scenario = scen.gen_scenario(21, scen.preset_params("geo"))
    track = finalize_3d(
        scen.ground_truth_track(scenario),
        scenario.cameras,
        (scenario.alignment_src, scenario.alignment_dst),
    )
    err = float(np.abs(track.world_point - scenario.gt_point).max())
    if err > 1e-6:
        return False, f"aggregated point off ground truth by {err:.3e}"
    report = metrics.eval_3d(track, scenario)
    if report.l2 is None or report.l2 > 1e-5 or report.angle > 1e-5:
        return False, f"3D report out of tolerance: {report}"
    return True, f"aggregate within {err:.1e} of ground truth; L2 {report.l2:.1e}"


def check_geo_weight_suppression():
    params = scen.preset_params("geo")
    corrupted = scen.gen_scenario(21, replace(params, corrupt_views=(4,)))
    clean_subset = scen.gen_scenario(21, params)
    full = finalize_3d(
        scen.ground_truth_track(corrupted),
        corrupted.cameras,
        (corrupted.alignment_src, corrupted.alignment_dst),
    )
    gt = scen.ground_truth_track(clean_subset)
    pruned_track = replace(gt, results=gt.results[:4], interval=(0, 3))
    pruned = finalize_3d(
        pruned_track, clean_subset.cameras, (clean_subset.alignment_src, clean_subset.alignment_dst)
    )
    shift = float(np.abs(full.world_point - pruned.world_point).max())
    weight = geo3d.geometric_confidence(20.0, 1.0)
    return shift < 1e-6 and weight < 1e-8, f"aggregate shift {shift:.2e}, corrupted weight {weight:.2e}"


def check_scenario_roundtrip(tmp_dir=None):
    import os
    import tempfile

    from . import fileio

    scenario = scen.gen_scenario(31, _small_identity_params(n_frames=3))
    with tempfile.TemporaryDirectory(dir=tmp_dir) as work:
        path_a = os.path.join(work, "a.npz")
        path_b = os.path.join(work, "b.npz")
        fileio.save_scenario(scenario, path_a)
        fileio.save_scenario(fileio.load_scenario(path_a), path_b)
        with open(path_a, "rb") as fha, open(path_b, "rb") as fhb:
            same = fha.read() == fhb.read()
    return same, "serialize -> parse -> serialize is byte-identical"


CHECKS = {
    "core.conv2d_vs_naive_loop": check_conv_naive,
    "core.component_runs_vs_union_find": check_component_runs,
    "core.min_bounding_rect_reduction": check_min_bounding_rect,
    "core.median_filter_sort_oracle": check_median_filter,
    "amm.pseudo_label_boundary_scan": check_pseudo_label_boundary,
    "amm.reweight_gaussian_oracle": check_reweight_blur,
    "amm.seg_loss_scalar_loop": check_seg_loss_naive,
    "amm.seg_gradient_finite_difference": check_seg_gradient_fd,
    "amm.gradient_stationary_at_optimum": check_seg_stationarity,
    "amm.step_size_line_scan": check_steepest_step_scan,
    "amm.step_size_special_cases": check_steepest_special_cases,
    "amm.descent_reaches_closed_form": check_steepest_convergence,
    "amm.descent_monotone": check_steepest_monotone,
    "amm.descent_matches_per_entry_loops": check_descent_vs_per_entry_loops,
    "amm.crop_ladder_area_oracle": check_crop_ladder,
    "amm.fifo_replay": check_amm_fifo_replay,
    "glm.track_loss_scalar_loop": check_track_loss_naive,
    "glm.track_gradient_finite_difference": check_track_gradient_fd,
    "glm.track_gradient_wls_case": check_track_gradient_wls,
    "glm.beta_frozen_quadratic_scan": check_gauss_newton_beta_scan,
    "glm.beta_ridge_case": check_gauss_newton_ridge_case,
    "glm.gauss_newton_reaches_wls_ridge": check_gauss_newton_convergence,
    "glm.optimizer_never_increases_loss": check_optimize_filter_monotone,
    "glm.optimizer_matches_per_sample_loops": check_optimizer_vs_per_sample_loops,
    "glm.crop_geometry_shared": check_glm_crop_geometry,
    "glm.update_source_replay": check_glm_update_source,
    "fusion.fuse_decode_elementwise": check_fusion_elementwise,
    "fusion.largest_component_bbox": check_largest_component_bbox,
    "fusion.extract_matches_union_find": check_extract_matches_union_find,
    "fusion.temporal_localization": check_temporal_localize,
    "geo3d.sim3_noiseless_recovery": check_sim3_recovery,
    "geo3d.sim3_noisy_recovery": check_sim3_noisy,
    "geo3d.projection_round_trips": check_projection_round_trip,
    "geo3d.aggregate_scalar_loop": check_aggregate_oracle,
    "geo3d.semantic_confidence_hand_case": check_semantic_confidence_hand_case,
    "pipeline.identity_frame_exact": check_pipeline_identity,
    "pipeline.null_frame_empty": check_pipeline_null_frame,
    "pipeline.initialization": check_pipeline_initialization,
    "pipeline.update_cadence": check_update_cadence,
    "pipeline.halt_reverts_banks": check_halt_revert,
    "pipeline.glm_static_immutable": check_glm_static_immutable,
    "harness.scenario_determinism": check_scenario_determinism,
    "harness.drift_similarity_decay": check_drift_similarity_decay,
    "harness.eval2d_hand_cases": check_eval2d_hand_cases,
    "harness.geo_aggregation_exact": check_geo_aggregation,
    "harness.geo_weight_suppression": check_geo_weight_suppression,
    "harness.scenario_file_roundtrip": check_scenario_roundtrip,
}


def run_checks(name_filter: str | None = None):
    """Run (a filtered subset of) the registry in order.

    Returns a list of (name, passed, detail) in registry order.
    """
    return [(name, *_run_one(name)) for name in CHECKS if name_filter is None or name_filter in name]


def _run_one(name: str) -> tuple[bool, str]:
    try:
        return CHECKS[name]()
    except Exception as exc:  # a crash is a failure, not an abort
        return False, f"raised {type(exc).__name__}: {exc}"
