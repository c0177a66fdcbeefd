"""Tracking branch: a discriminative correlation filter fit by Gauss-Newton.

The filter ``c`` maps features to a single-channel score map
``H = conv2d(F, c)`` regressed toward a Gaussian peak over the target. The
residual blends least squares inside the target region with a hinge outside
it, controlled by a per-pixel region map S in [0, 1]:

    r = sw * (S * H + (1 - S) * max(0, H) - G)

so S = 1 fits G exactly, S = 0 only penalizes positive background
responses, and intermediate S interpolates. sw = W_BG + (W_FG - W_BG) * G
is a center-emphasizing spatial weight derived from G. The loss is

    L(c) = 1/|O| * sum_i ||r_i||^2 + lambda^2 ||c||^2

The ridge weight lambda is the constant RIDGE, and a filter is its
read-only (K, K, C, 1) kernel array. A snapshot is the ``core.BankEntry``
of the window ``pipeline.crop_entry`` cuts around the target's box, which
both banks share; this solver reads its feature crop, its target region
S (the probability map cut with it) and its label G, a Gaussian centered
on the window with sigma = side / 6 (``pipeline.label_sigma``).

The solver works on the bank flattened to pixel rows: A holds the rows
of every entry's im2col patch matrix A_i (one row per pixel,
P = K*K*C columns), so all scores are one matvec h = A c. The residual
weights ws = sw * S, wn = sw * (1 - S) and wg = sw * G do not change with
the filter: each entry keeps its ws, ws + wn and wg, and a refit joins them.
With the hinge subgradient (zero at the kink)

    q        = ws + wn * 1[h > 0]
    r        = q * h - wg
    grad L   = 2/|O| * A^T (q * r) + 2 lambda^2 c.

Each iteration moves along -grad L with the step length that minimizes the
quadratic model built from the residual Jacobian q * A:

    g' (J'J) g = 2/|O| * ||q * (A g)||^2 + 2 lambda^2 ||g||^2
    beta       = ||g||^2 / (g' (J'J) g)

Because the hinge makes the true objective only piecewise quadratic, a
halving safeguard rejects any step that would increase the loss. Scores are
linear in c, so a candidate c - beta g has the scores h - beta (A g) from
the accepted scores h and the curvature product A g. A refit therefore
makes one pass over the patch rows for A c at the start, then two per
iteration, the gradient product A^T (q * r) and the curvature product A g;
a halving makes none.

Each read-only entry keeps its A_i, built once per kernel size for both
solvers (``core.BankEntry.rows``), so a refit builds no patch rows for an
entry either solver has seen. A itself is never stacked, which would hold
every row twice: A c is written entry by entry into one score vector, and
A^T v is the sum of the entries' A_i^T v_i.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    GRADIENT_EPS,
    BankEntry,
    EmptyInputError,
    ParameterError,
    _check_bank,
    as_index,
    frozen_array,
    frozen_in_place,
)

__all__ = [
    "spatial_weight",
    "track_loss",
    "track_gradient",
    "gauss_newton_step",
    "optimize_filter",
    "glm_update_source",
]

MAX_STEP_HALVINGS = 8
# the ridge weight lambda of the tracking loss
RIDGE = 0.1
# residual weights sw at the label peak (G = 1) and far from it (G = 0)
W_FG = 1.0
W_BG = 0.25
# trailing frames whose peaks pick the snapshot source of a refit
SOURCE_WINDOW = 25


def spatial_weight(label: np.ndarray) -> np.ndarray:
    """W_BG + (W_FG - W_BG) * G, so the weight peaks with the label."""
    return W_BG + (W_FG - W_BG) * np.asarray(label, dtype=np.float64)


def _squared_norm(v: np.ndarray) -> float:
    """||v||^2 summed by numpy's own loop: OpenBLAS splits a dot product of more than ~10,000 elements,
    as long as a bank's scores, across its threads, which moves the sum's last bits with the thread count."""
    return float(np.einsum("i,i", v, v))


def _residual_weights(entry: BankEntry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entry's flat, read-only ws, ws + wn and wg, formed once and kept on it like its AMM statistics."""
    if "glm" not in entry._stats:
        sw, region = spatial_weight(entry.label).ravel(), entry.target_region.ravel()
        ws = sw * region
        entry._stats["glm"] = tuple(map(frozen_in_place, (ws, ws + sw * (1.0 - region), sw * entry.label.ravel())))
    return entry._stats["glm"]


class _Problem:
    """The bank flattened to pixel rows for one kernel shape.

    Holds the entries' patch rows A_i and the per-row residual weights
    ws, ws + wn and wg of the whole bank, the entries' own concatenated;
    every method works on a flat kernel c of length P or on scores h = A c.
    """

    def __init__(self, entries: Sequence[BankEntry], kernel_shape: Sequence[int]):
        _check_bank(entries, kernel_shape, 1)
        self.rows = [e.rows(kernel_shape[0]) for e in entries]
        self.bounds = np.cumsum([0] + [e.label.size for e in entries])
        self.ws, self.ws_wn, self.wg = map(np.concatenate, zip(*map(_residual_weights, entries)))
        self.scale = 1.0 / len(entries)

    def residual(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual r = sw * (S * h + (1 - S) * max(0, h) - G) and its derivative q wrt h."""
        # subgradient 0 at h = 0
        q = np.where(h > 0.0, self.ws_wn, self.ws)
        return q * h - self.wg, q

    def evaluate(self, h: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Loss, residual r and derivative map q at the flat kernel c with scores h = A c."""
        r, q = self.residual(h)
        return self.scale * _squared_norm(r) + RIDGE**2 * float(c @ c), r, q

    def times(self, c: np.ndarray) -> np.ndarray:
        """A c, one entry's rows at a time."""
        out = np.empty(self.bounds[-1])
        for rows, lo, hi in zip(self.rows, self.bounds, self.bounds[1:]):
            np.matmul(rows, c, out=out[lo:hi])
        return out

    def gradient(self, c: np.ndarray, r: np.ndarray, q: np.ndarray) -> np.ndarray:
        v = q * r
        a_t_v = np.zeros(c.size)
        for rows, lo, hi in zip(self.rows, self.bounds, self.bounds[1:]):
            a_t_v += rows.T @ v[lo:hi]
        return 2.0 * self.scale * a_t_v + 2.0 * RIDGE**2 * c

    def step_length(self, g_norm2: float, ag: np.ndarray, q: np.ndarray) -> float:
        """beta = ||g||^2 / (g' (J'J) g) with J'J frozen at q, from ||g||^2 and the curvature product A g."""
        if g_norm2 == 0.0:
            raise ParameterError("step is undefined for a zero gradient (already converged)")
        qag = q * ag
        curvature = 2.0 * self.scale * _squared_norm(qag) + 2.0 * RIDGE**2 * g_norm2
        if curvature <= 0.0:
            raise ParameterError(f"curvature along the gradient is not positive: {curvature}")
        return g_norm2 / curvature


def track_loss(kernel: np.ndarray, mem: Sequence[BankEntry]) -> float:
    """Mean squared residual over the bank plus lambda^2 ||c||^2."""
    problem = _Problem(mem, kernel.shape)
    c = kernel.ravel()
    loss, _, _ = problem.evaluate(problem.times(c), c)
    return loss


def track_gradient(kernel: np.ndarray, mem: Sequence[BankEntry]) -> np.ndarray:
    """Exact gradient of :func:`track_loss` wherever no score sits on the hinge kink."""
    problem = _Problem(mem, kernel.shape)
    c = kernel.ravel()
    _, r, q = problem.evaluate(problem.times(c), c)
    return problem.gradient(c, r, q).reshape(kernel.shape)


def gauss_newton_step(kernel: np.ndarray, mem: Sequence[BankEntry]) -> tuple[np.ndarray, float]:
    """Gradient direction and the step length minimizing the frozen quadratic model."""
    problem = _Problem(mem, kernel.shape)
    c = kernel.ravel()
    _, r, q = problem.evaluate(problem.times(c), c)
    g = problem.gradient(c, r, q)
    return g.reshape(kernel.shape), problem.step_length(float(g @ g), problem.times(g), q)


def optimize_filter(kernel: np.ndarray, mem: Sequence[BankEntry], n_iter: int) -> np.ndarray:
    """Iterate safeguarded Gauss-Newton steps from ``kernel``; the loss never increases.

    The closed-form step is exact while the hinge activation pattern is
    unchanged; when a step crosses the kink and would raise the true loss,
    it is halved up to MAX_STEP_HALVINGS times and dropped if that fails.
    Returns a kernel that nothing can change: a step's fresh product made read-only in place, or
    the start kernel as a ``core.frozen_array`` when no step is taken.
    """
    if as_index(n_iter, "n_iter") < 0:
        raise ParameterError(f"n_iter must be >= 0, got {n_iter}")
    problem = _Problem(mem, kernel.shape)
    start = c = kernel.ravel()
    h = problem.times(c)
    loss, r, q = problem.evaluate(h, c)
    for _ in range(n_iter):
        g = problem.gradient(c, r, q)
        g_norm2 = float(g @ g)
        if float(np.sqrt(g_norm2)) < GRADIENT_EPS:
            break
        ag = problem.times(g)
        beta = problem.step_length(g_norm2, ag, q)
        for _halving in range(MAX_STEP_HALVINGS + 1):
            candidate, candidate_h = c - beta * g, h - beta * ag
            candidate_loss, candidate_r, candidate_q = problem.evaluate(candidate_h, candidate)
            if candidate_loss <= loss:
                c, h, loss, r, q = candidate, candidate_h, candidate_loss, candidate_r, candidate_q
                break
            beta *= 0.5
        else:
            break
    if c is not start:
        frozen_in_place(c)
    return frozen_array(c.reshape(kernel.shape), np.float64)


def glm_update_source(response_history: Sequence[float]) -> str:
    """Pick the snapshot driving the next filter refresh.

    A frame counts as a high response when its peak reaches half of the
    running maximum peak seen so far. If more than 60% of the last
    SOURCE_WINDOW frames are high the dynamic snapshots are trusted, otherwise
    the filter re-anchors on the static query snapshot.
    """
    history = np.asarray(response_history, dtype=np.float64)
    if history.size == 0:
        raise EmptyInputError("response history must be non-empty")
    running_max = np.maximum.accumulate(history)
    high = history >= 0.5 * running_max
    recent = high[-SOURCE_WINDOW:]
    return "dynamic" if recent.mean() > 0.6 else "static"
