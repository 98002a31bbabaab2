"""Local Outlier Factor, implemented from scratch.

LOF (Breunig et al., SIGMOD 2000) scores how isolated a point is relative
to the density of its k nearest neighbours: ~1 for inliers, substantially
above 1 for outliers.  SkeletonHunter's short-term detector computes LOF
over the per-window latency summary vectors inside a five-minute look-back
(§5.2 of the paper) and flags windows whose score exceeds a threshold.

The scalar functions (:func:`local_outlier_factor`,
:func:`lof_score_of_new_point`) recompute everything from the raw
points and define the semantics; :func:`lof_scores_fixed_batch` is the
same score for one candidate per pair over a whole stack of pairs'
look-backs at once, which is what the detection engine calls — with
thousands of monitored pairs closing a window every 30 s, per-pair
numpy calls were the detector hot spot.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "local_outlier_factor",
    "lof_score_of_new_point",
    "lof_scores_fixed_batch",
]


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, shape (n, n).

    Materializes the (n, n, d) difference tensor and contracts it with
    one einsum.  The ``||a||² + ||b||² - 2·a·b`` identity would be one
    BLAS matmul instead, but its cancellation error grows with the
    point magnitudes; the explicit form keeps the scalar references
    here and :func:`lof_scores_fixed_batch` on the *same* contraction
    kernel, so their scores agree bit-for-bit.  n is a look-back (tens), so the
    tensor stays small.
    """
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))


def local_outlier_factor(points: np.ndarray, k: int = 5) -> np.ndarray:
    """LOF score for every row of ``points``.

    Parameters
    ----------
    points:
        (n, d) array of feature vectors.
    k:
        Neighbourhood size (``MinPts``); clamped to n - 1.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = pts.shape[0]
    if n < 2:
        return np.ones(n)
    k = max(1, min(k, n - 1))

    dist = _pairwise_distances(pts)
    np.fill_diagonal(dist, np.inf)

    # k-distance and k-neighbourhood of every point.
    order = np.argsort(dist, axis=1)
    knn = order[:, :k]
    k_distance = dist[np.arange(n), order[:, k - 1]]

    # Reachability distance: reach(p <- o) = max(k_dist(o), d(p, o)).
    reach = np.maximum(k_distance[knn], dist[np.arange(n)[:, None], knn])

    # Local reachability density.
    with np.errstate(divide="ignore"):
        lrd = 1.0 / np.maximum(reach.mean(axis=1), 1e-12)

    # LOF: mean neighbour density over own density.
    lof = lrd[knn].mean(axis=1) / lrd
    return lof


def lof_score_of_new_point(
    history: np.ndarray, candidate: np.ndarray, k: int = 5
) -> float:
    """LOF of ``candidate`` with respect to an existing ``history`` set.

    This is the online form the detector uses: previous windows form the
    reference set and the newest window is scored against them without
    perturbing their own densities.
    """
    hist = np.asarray(history, dtype=np.float64)
    cand = np.asarray(candidate, dtype=np.float64).reshape(1, -1)
    if hist.ndim != 2:
        raise ValueError("history must be a 2-D array")
    n = hist.shape[0]
    if n < 2:
        return 1.0
    k = max(1, min(k, n - 1))

    dist_hist = _pairwise_distances(hist)
    np.fill_diagonal(dist_hist, np.inf)
    order = np.argsort(dist_hist, axis=1)
    k_distance = dist_hist[np.arange(n), order[:, k - 1]]
    knn_hist = order[:, :k]
    reach_hist = np.maximum(
        k_distance[knn_hist], dist_hist[np.arange(n)[:, None], knn_hist]
    )
    with np.errstate(divide="ignore"):
        lrd_hist = 1.0 / np.maximum(reach_hist.mean(axis=1), 1e-12)

    diff_cand = hist - cand
    dist_cand = np.sqrt(np.einsum("nd,nd->n", diff_cand, diff_cand))
    order_cand = np.argsort(dist_cand)[:k]
    reach_cand = np.maximum(k_distance[order_cand], dist_cand[order_cand])
    lrd_cand = 1.0 / max(float(reach_cand.mean()), 1e-12)
    return float(lrd_hist[order_cand].mean() / lrd_cand)


def lof_scores_fixed_batch(
    histories: np.ndarray, candidates: np.ndarray, k: int = 5
) -> np.ndarray:
    """LOF of ``candidates[i]`` against ``histories[i]`` for every i.

    The batched form of :func:`lof_score_of_new_point` the detection
    engine uses: ``histories`` is a (B, n, d) stack of per-pair
    reference sets that all hold the *same* number of points n (the
    caller buckets by count), ``candidates`` is the matching (B, d)
    block of new windows.  Every arithmetic step mirrors the scalar
    function — explicit-difference distances through the same einsum
    contraction kernel, reach means clamped at 1e-12 — so per-row
    results agree with it to float rounding (tested row by row in
    ``tests/analysis/test_lof.py``).  Rows with n < 2 score a neutral
    1.0.
    """
    hist = np.asarray(histories, dtype=np.float64)
    cand = np.asarray(candidates, dtype=np.float64)
    if hist.ndim != 3 or cand.ndim != 2:
        raise ValueError("histories must be (B, n, d), candidates (B, d)")
    batch, n, _ = hist.shape
    if batch == 0:
        return np.empty(0)
    if n < 2:
        return np.ones(batch)
    k_eff = max(1, min(k, n - 1))

    diff = hist[:, :, None, :] - hist[:, None, :, :]
    dist = np.sqrt(np.einsum("bnmd,bnmd->bnm", diff, diff))
    rows = np.arange(n)
    dist[:, rows, rows] = np.inf

    # Per-row k-distance and local reachability density of the
    # reference points.
    idx = np.argpartition(dist, k_eff - 1, axis=2)[:, :, :k_eff]
    vals = np.take_along_axis(dist, idx, axis=2)
    kd = vals.max(axis=2)
    b_ix = np.arange(batch)[:, None, None]
    reach = np.maximum(kd[b_ix, idx], vals)
    lrd = 1.0 / np.maximum(
        np.add.reduce(reach, axis=2) / k_eff, 1e-12
    )

    # Candidate side.
    diff_c = hist - cand[:, None, :]
    d_c = np.sqrt(np.einsum("bnd,bnd->bn", diff_c, diff_c))
    nn = np.argpartition(d_c, k_eff - 1, axis=1)[:, :k_eff]
    flat = np.arange(batch)[:, None]
    reach_c = np.maximum(kd[flat, nn], np.take_along_axis(d_c, nn, axis=1))
    lrd_c = 1.0 / np.maximum(
        np.add.reduce(reach_c, axis=1) / k_eff, 1e-12
    )
    return np.add.reduce(lrd[flat, nn], axis=1) / k_eff / lrd_c
