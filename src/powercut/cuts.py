"""Balanced sparse cut procedures over (possibly sparsified) clusters.

Both procedures share one contract: given a weighted graph H on a cluster,
the original-graph degrees of the cluster vertices, and a sparsity target
phi, either declare the cluster an expander or return a cut S with small
estimated sparsity ``Phi'(S) = w_H(S, rest) / Vol(S)`` and
``Vol(S) <= Vol(cluster) / 2``, where all volumes use the original degrees.

`exhaustive_balanced_cut` enumerates every cut (clusters of at most 22
vertices) and is exact: among cuts with Phi' below (1+2*delta)*phi it
returns the one of maximum volume, ties broken by lexicographically
smallest vertex set.

`sweep_balanced_cut` is the polynomial stand-in for the flow-based balanced
cut black box: power iteration for the second eigenvector of the lazy
normalized walk matrix, a sweep over prefixes of the eigenvector order, and
iterative peeling of successive sub-phi sweep cuts to improve balance until
the accumulated cut reaches half the cluster volume or no sub-phi sweep cut
remains.  Its advertised constants are measured, not proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .graph import BRUTE_FORCE_LIMIT, REL_SLACK, Graph, GraphError, enumerate_cut_stats, mask_to_set, subset_sums


class SweepNumericFailure(RuntimeError):
    """Power iteration failed to stagnate within its iteration budget."""


@dataclass(frozen=True)
class BalancedCutOutcome:
    expander: bool
    cut: np.ndarray | None = None
    sparsity_estimate: float = math.nan
    balance: float = math.nan

    def __post_init__(self):
        if not self.expander and (self.cut is None or self.cut.size == 0):
            raise GraphError("non-expander outcome needs a nonempty cut")


EXPANDER = BalancedCutOutcome(True)


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    return tuple(a.tolist()) < tuple(b.tolist())


def exhaustive_balanced_cut(
    H: Graph, deg_g: np.ndarray, phi: float, delta: float
) -> BalancedCutOutcome:
    """Most balanced cut of estimated sparsity at most (1+2*delta)*phi.

    Requires delta < 1/16 and H on at most 22 vertices.  When H is a
    (delta, delta*phi)-cut sparsifier of the underlying cluster, an Expander
    verdict certifies the cluster is a phi-expander, and any returned cut S
    has true sparsity at most (1+5*delta)*phi and maximal volume among
    qualifying cuts (balance factor b = 1).
    """
    if H.n > BRUTE_FORCE_LIMIT:
        raise GraphError(f"too large for exhaustive cut search: n={H.n}")
    if not (0.0 <= delta <= 1.0 / 16.0):
        raise GraphError("need delta in [0, 1/16]")
    deg_g = np.asarray(deg_g, dtype=np.float64)
    if deg_g.shape != (H.n,):
        raise GraphError("deg_g must align with H's vertices")
    vol_c = float(deg_g.sum())
    threshold = (1.0 + 2.0 * delta) * phi
    limit = threshold * (1.0 + REL_SLACK)
    best_vol = -1.0
    best_set = None
    best_phi = math.nan
    all_ids = np.arange(H.n, dtype=np.int64)
    vol_g = subset_sums(deg_g[:-1])
    for masks, cw, _, _ in enumerate_cut_stats(H, batch=1 << 15):
        vol_s = vol_g[masks[0]: masks[-1] + 1]
        vol_rest = vol_c - vol_s
        side_vol = np.minimum(vol_s, vol_rest)
        phi_est = np.where(side_vol > 0, cw / np.where(side_vol > 0, side_vol, 1.0), math.inf)
        good = (side_vol > 0) & (phi_est <= limit)
        if not good.any():
            continue
        batch_best = side_vol[good].max()
        if batch_best < best_vol:
            continue
        # only the batch maxima can beat or tie the incumbent
        for idx in np.flatnonzero(good & (side_vol >= batch_best)):
            sv = float(side_vol[idx])
            mask = int(masks[idx])
            S = mask_to_set(mask, H.n)
            # candidate side = smaller volume side; on an exact tie, the side
            # containing vertex 0 is the lexicographically smaller one
            if float(vol_s[idx]) > float(vol_rest[idx]):
                S = np.setdiff1d(all_ids, S)
            elif float(vol_s[idx]) == float(vol_rest[idx]) and (mask & 1) == 0:
                S = np.setdiff1d(all_ids, S)
            if sv > best_vol or (sv == best_vol and _lex_smaller(S, best_set)):
                best_vol = sv
                best_set = S
                best_phi = float(phi_est[idx])
    if best_set is None:
        return EXPANDER
    return BalancedCutOutcome(
        False, cut=best_set, sparsity_estimate=best_phi, balance=best_vol / vol_c
    )


# -- spectral sweep -------------------------------------------------------------


@dataclass
class _ClusterView:
    """H's nonloop edges as CSR-ordered entries: each edge {u, v} appears as
    u -> v and v -> u, grouped by source vertex, each row in edge order."""

    n: int
    row: np.ndarray  # source vertex of each entry, ascending
    nbr: np.ndarray
    wt: np.ndarray
    deg_h: np.ndarray

    @classmethod
    def from_graph(cls, H: Graph) -> "_ClusterView":
        nonloop = H.edge_u != H.edge_v
        u, v = H.edge_u[nonloop], H.edge_v[nonloop]
        src = np.column_stack([u, v]).ravel()
        by_row = np.argsort(src, kind="stable")
        dst = np.column_stack([v, u]).ravel()
        wt = np.repeat(H.edge_w[nonloop], 2)
        return cls(H.n, src[by_row], dst[by_row], wt[by_row], H.deg.copy())

    def inside(self, ids: np.ndarray):
        """(row, nbr, wt) of the entries with both ends in ids, in row order."""
        mask = np.zeros(self.n, dtype=bool)
        mask[ids] = True
        keep = mask[self.row] & mask[self.nbr]
        return self.row[keep], self.nbr[keep], self.wt[keep]


def _components(view: _ClusterView, active: np.ndarray) -> list[np.ndarray]:
    """Connected components of the active induced subgraph (nonloop edges)."""
    sub = np.flatnonzero(active)
    pos = -np.ones(view.n, dtype=np.int64)
    pos[sub] = np.arange(sub.size)
    rows, cols, _ = view.inside(sub)
    mat = csr_matrix(
        (np.ones(rows.size), (pos[rows], pos[cols])), shape=(sub.size, sub.size)
    )
    ncomp, labels = connected_components(mat, directed=False)
    return [sub[labels == c] for c in range(ncomp)]


def _second_vector(view: _ClusterView, active_ids: np.ndarray,
                   max_iter: int, tol: float) -> np.ndarray:
    """Approximate 2nd eigenvector of the lazy walk matrix on the active set.

    Self-loops plus degree lost to peeled vertices sit on the diagonal, so
    every vertex keeps its full H-degree and sqrt(deg) is the exact top
    eigenvector used for deflation.
    """
    n_a = active_ids.size
    pos = -np.ones(view.n, dtype=np.int64)
    pos[active_ids] = np.arange(n_a)
    rows, cols, vals = view.inside(active_ids)
    rows, cols = pos[rows], pos[cols]
    # summed entry by entry in row order, like a per-row loop
    inner = np.bincount(rows, vals, minlength=n_a)
    d = view.deg_h[active_ids]
    diag = d - inner  # loops plus peeled-away degree
    A = csr_matrix((vals, (rows, cols)), shape=(n_a, n_a))
    inv_sqrt = 1.0 / np.sqrt(d)
    u_top = np.sqrt(d)
    u_top /= math.sqrt(float(u_top @ u_top))

    # deterministic start vector, generically non-orthogonal to the target
    x = np.array([math.sin(1.0 + 0.7 * i) for i in range(n_a)])
    x -= u_top * (u_top @ x)
    nrm = math.sqrt(float(x @ x))
    if nrm < 1e-14:
        x = np.ones(n_a)
        x[::2] = -1.0
        x -= u_top * (u_top @ x)
        nrm = math.sqrt(float(x @ x))
    x /= nrm

    def walk(y):
        z = inv_sqrt * y
        z = A @ z + diag * z
        return 0.5 * (y + inv_sqrt * z)

    # walk(y) serves both the Rayleigh quotient of y and the next step
    wx = walk(x)
    prev_r = math.inf
    for _ in range(max_iter):
        y = wx
        y -= u_top * (u_top @ y)
        nrm = math.sqrt(float(y @ y))
        if nrm < 1e-14:
            return x
        y /= nrm
        wx = walk(y)
        r = float(y @ wx)
        if abs(r - prev_r) <= tol * max(1.0, abs(r)):
            return y
        prev_r = r
        x = y
    raise SweepNumericFailure(
        f"power iteration did not stagnate in {max_iter} iterations"
    )


def _best_sweep_prefix(view: _ClusterView, order: np.ndarray, deg_g: np.ndarray,
                       phi_limit: float):
    """Most balanced prefix cut with estimated sparsity below phi_limit.

    Returns (local_prefix_len, phi_est) or None.  Sparsity of a prefix uses
    the min-side volume within the active set, in original degrees.  Every
    sum runs in the order of a vertex-by-vertex sweep, so the cut weights
    are those of the scalar sweep bit for bit.
    """
    pos = -np.ones(view.n, dtype=np.int64)
    pos[order] = np.arange(order.size)
    rows, cols, vals = view.inside(order)
    at, back = pos[rows], pos[cols] < pos[rows]
    w_inside = np.bincount(at, vals, minlength=order.size)
    w_to_prefix = np.bincount(at[back], vals[back], minlength=order.size)
    # the prefix of length k + 1 ends at order[k]; the full set is no cut
    cut_w = np.cumsum(w_inside - 2.0 * w_to_prefix)[:-1]
    vol_pref = np.cumsum(deg_g[order[:-1]])
    vol_total = float(deg_g[order].sum())
    side = np.minimum(vol_pref, vol_total - vol_pref)
    phi_est = cut_w / np.where(side > 0, side, 1.0)
    good = (side > 0) & (phi_est <= phi_limit)
    if not good.any():
        return None
    k = int(np.argmax(np.where(good, side, -1.0)))  # first of the largest sides
    return k + 1, float(phi_est[k])


def sweep_balanced_cut(
    H: Graph,
    deg_g: np.ndarray,
    phi: float,
    delta: float,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> BalancedCutOutcome:
    """Polynomial balanced-cut heuristic with the Def-4.1-shaped contract.

    A disconnected H yields an immediate zero-sparsity cut.  Otherwise sweep
    cuts of the approximate Fiedler order with Phi' <= phi are peeled off one
    after another (each measured within the remaining subgraph, volumes in
    original degrees) until the union reaches half the cluster volume or no
    qualifying sweep cut remains.  Expander is declared only when the very
    first sweep finds no cut with Phi' <= phi.
    """
    deg_g = np.asarray(deg_g, dtype=np.float64)
    if deg_g.shape != (H.n,):
        raise GraphError("deg_g must align with H's vertices")
    vol_c = float(deg_g.sum())
    if H.n <= 1 or vol_c <= 0:
        return EXPANDER
    view = _ClusterView.from_graph(H)
    if max_iter is None:
        max_iter = math.ceil(10.0 * math.log2(max(H.n, 2)) / max(phi, 1e-4)) + 20
    phi_limit = phi * (1.0 + REL_SLACK)

    active = np.ones(H.n, dtype=bool)
    taken: list[np.ndarray] = []
    vol_taken = 0.0
    half = vol_c / 2.0

    while True:
        comps = _components(view, active)
        pieces = [c for c in comps if deg_g[c].sum() > 0]
        round_cut = None
        if len(pieces) > 1:
            # free cut: split components across two bins, heavier bin first
            pieces.sort(key=lambda c: (-float(deg_g[c].sum()), c[0]))
            bin_a, bin_b = [], []
            va = vb = 0.0
            for c in pieces:
                if va <= vb:
                    bin_a.append(c)
                    va += float(deg_g[c].sum())
                else:
                    bin_b.append(c)
                    vb += float(deg_g[c].sum())
            side = bin_a if va <= vb else bin_b
            round_cut = np.sort(np.concatenate(side))
        elif len(pieces) == 1 and pieces[0].size > 1:
            comp = pieces[0]
            try:
                vec = _second_vector(view, comp, max_iter, tol)
            except SweepNumericFailure:
                if taken:
                    break
                raise
            order = comp[np.lexsort((comp, vec))]
            found = _best_sweep_prefix(view, order, deg_g, phi_limit)
            if found is not None:
                k_pref, _ = found
                prefix = np.sort(order[:k_pref])
                rest = np.sort(order[k_pref:])
                round_cut = prefix if deg_g[prefix].sum() <= deg_g[rest].sum() else rest
        if round_cut is None:
            break
        vol_round = float(deg_g[round_cut].sum())
        if vol_taken + vol_round > half * (1.0 + REL_SLACK):
            break
        taken.append(round_cut)
        vol_taken += vol_round
        active[round_cut] = False
        if vol_taken >= half * (1.0 - 1e-12) or not active.any():
            break

    if not taken:
        return EXPANDER
    S = np.sort(np.concatenate(taken))
    cut_w = H.cut_weight(S) if S.size < H.n else 0.0
    phi_est = cut_w / vol_taken if vol_taken > 0 else math.inf
    return BalancedCutOutcome(
        False, cut=S, sparsity_estimate=phi_est, balance=vol_taken / vol_c
    )
