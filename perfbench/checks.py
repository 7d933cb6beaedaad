"""Output checks computed apart from the program.

Each check takes the benchmark's own edge list and returns a list of
problems (empty when the output is correct).  Only numpy is used here;
the program's results are compared against these, never the other way.
"""

from __future__ import annotations

import math

import numpy as np


def phi_final(n: int, eps: float, quality_k: int, delta: float) -> float:
    """Final expansion target of the decomposition schedule with its
    default knobs: alpha = 1 + 5*delta and a volume bound of n^2."""
    alpha = 1.0 + 5.0 * delta
    phi0 = eps / (2.0 * math.log2(max(float(max(n, 2)) ** 2, 4.0)) * alpha)
    return phi0 * alpha ** (-(quality_k + 1))


def check_partition(n: int, clusters) -> list:
    """The clusters are disjoint and cover 0..n-1."""
    seen = np.zeros(n, dtype=np.int64)
    for C in clusters:
        C = np.asarray(C, dtype=np.int64)
        if C.size == 0:
            return ["empty cluster"]
        if C.min() < 0 or C.max() >= n:
            return ["vertex id out of range"]
        np.add.at(seen, C, 1)
    problems = []
    if np.any(seen == 0):
        problems.append(f"{int(np.sum(seen == 0))} vertices in no cluster")
    if np.any(seen > 1):
        problems.append(f"{int(np.sum(seen > 1))} vertices in several clusters")
    return problems


def check_intercluster(n: int, edges, clusters, eps: float) -> list:
    """Edges between clusters carry at most eps * Vol(V) volume."""
    label = np.full(n, -1, dtype=np.int64)
    for cid, C in enumerate(clusters):
        label[np.asarray(C, dtype=np.int64)] = cid
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    crossing = int(np.sum(label[e[:, 0]] != label[e[:, 1]]))
    # an edge between clusters counts once in each cluster's cut
    icv, total = 2.0 * crossing, 2.0 * len(e)
    if icv > eps * total * (1.0 + 1e-9):
        return [f"intercluster volume {icv} > eps*Vol = {eps * total}"]
    return []


def cheeger_bound(n: int, edges, C) -> float:
    """lambda_2 / 2 of the normalized Laplacian of G{C}.

    G{C} keeps the edges inside C and puts each vertex's lost degree on a
    self-loop, so degrees are those of G.  Loops never cross a cut, so the
    Laplacian is that of the inner edges, normalized by the full degrees;
    lambda_2 / 2 is a lower bound on the conductance of G{C}.
    """
    C = np.asarray(C, dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    deg = np.bincount(e.ravel(), minlength=n).astype(np.float64)[C]
    local = np.full(n, -1, dtype=np.int64)
    local[C] = np.arange(C.size)
    inside = e[(local[e[:, 0]] >= 0) & (local[e[:, 1]] >= 0)]
    a = np.zeros((C.size, C.size))
    np.add.at(a, (local[inside[:, 0]], local[inside[:, 1]]), 1.0)
    a = a + a.T
    lap = np.diag(a.sum(axis=1)) - a
    inv = 1.0 / np.sqrt(deg)
    lam = np.linalg.eigvalsh(inv[:, None] * lap * inv[None, :])
    return float(lam[1]) / 2.0


def check_expanders(n: int, edges, clusters, phi: float) -> list:
    """Every cluster of two or more vertices is certified a phi-expander."""
    problems = []
    for C in clusters:
        if len(C) < 2:
            continue
        bound = cheeger_bound(n, edges, C)
        if bound < phi:
            problems.append(f"cluster of {len(C)} not certified: lambda2/2 = {bound:.4g} < {phi:.4g}")
    return problems


def check_decomposition(n: int, edges, clusters, eps: float, phi: float) -> list:
    problems = check_partition(n, clusters)
    if problems:
        return problems
    return check_intercluster(n, edges, clusters, eps) + check_expanders(n, edges, clusters, phi)


def check_degrees(deg_expected: np.ndarray, deg_seen, who: str) -> list:
    if not np.array_equal(np.asarray(deg_seen, dtype=np.int64), deg_expected):
        return [f"{who}: degree counters differ from the stream's net degrees"]
    return []


def sample_levels(deg: np.ndarray, ups: float) -> np.ndarray:
    """Recovery level of each vertex: max(0, floor(log2(deg / 2Y))), capped
    at ceil(log2 n)."""
    n = deg.size
    top = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    j = np.zeros(n, dtype=np.int64)
    for v in np.flatnonzero(deg > 0):
        j[v] = min(max(0, math.floor(math.log2(deg[v] / (2.0 * ups)))), top)
    return j


def check_sparsifier(edges, deg: np.ndarray, ups: float, got, offline) -> list:
    """The recovered sparsifier equals the offline sample, keeps only edges
    of the graph, and weighs {u, v} as 2^min(j_u, j_v)."""
    problems = []
    if got is None:
        return ["recovery reported FAIL"]
    if not (np.array_equal(got.edge_u, offline.edge_u)
            and np.array_equal(got.edge_v, offline.edge_v)
            and np.array_equal(got.edge_w, offline.edge_w)):
        problems.append("recovered sparsifier differs from sample_offline")
    present = set(map(tuple, edges))
    j = sample_levels(deg, ups)
    for u, v, w in zip(got.edge_u.tolist(), got.edge_v.tolist(), got.edge_w.tolist()):
        if (u, v) not in present:
            problems.append(f"edge ({u},{v}) is not in the graph")
            break
        if w != 2.0 ** min(j[u], j[v]):
            problems.append(f"edge ({u},{v}) has weight {w}, expected {2.0 ** min(j[u], j[v])}")
            break
    if got.num_edges == 0:
        problems.append("recovered sparsifier is empty")
    return problems
