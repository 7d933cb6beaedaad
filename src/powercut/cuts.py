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
cut black box: the second eigenvector of the lazy normalized walk matrix
from one `scipy.sparse.linalg.eigsh` call (ARPACK's Lanczos, with the known
top eigenvector deflated), a sweep over prefixes of the eigenvector order,
and iterative peeling of successive sub-phi sweep cuts to improve balance
until the accumulated cut reaches half the cluster volume or no sub-phi
sweep cut remains.  Each round reads H's own nonloop edge arrays, kept to
the round's vertex set, and takes every prefix's cut weight from one cumsum
over edge ends.  Its advertised constants are measured, not proven.  On
clusters of at most `CERTIFY_LIMIT` vertices it first tries a Cheeger
certificate, a Cholesky threshold test: when lambda_2 / 2 of the normalized
Laplacian clears phi, no cut has Phi' <= phi, so its Expander verdict is a
proof and no eigensolve runs.

The sweep is the package's only user of scipy and imports it once it gets
past the certificate, so a run whose every sweep is certified, or that
never sweeps, never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BRUTE_FORCE_LIMIT, REL_SLACK, Graph, GraphError, enumerate_cut_stats, mask_to_set


# largest cluster the sweep tries to certify with a dense Cholesky, O(n^3)
# time and 2n^2 floats; the check is wasted on every cluster with a sparse
# cut, and at this size it costs 1.3-1.7 ms (one BLAS thread) and 1.1 MB.  On
# 600-vertex planted graphs with 120- and 200-vertex expander blocks, a cap
# of 64 gave 1.6x and 1.5x the fast decompose-and-verify time of this one;
# on 60-vertex blocks the caps 64, 128 and 256 timed the same
CERTIFY_LIMIT = 256


class SweepNumericFailure(RuntimeError):
    """The sweep's eigensolve (ARPACK) did not converge."""


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
    for masks, cw, side_vol, vol_s in enumerate_cut_stats(H, deg=deg_g):
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_est = cw / side_vol
        good = phi_est <= limit
        if not good.any():
            continue
        good &= side_vol > 0  # a side of volume 0 or less is no cut
        if not good.any():
            continue
        block_best = side_vol[good].max()
        if block_best < best_vol:
            continue
        # only the block maxima can beat or tie the incumbent
        for idx in np.flatnonzero(good & (side_vol >= block_best)):
            sv = float(side_vol[idx])
            mask = int(masks[idx])
            S = mask_to_set(mask, H.n)
            # candidate side = smaller volume side; on an exact tie, the side
            # containing vertex 0 is the lexicographically smaller one
            vs = float(vol_s[idx])
            vol_rest = vol_c - vs
            if vs > vol_rest or (vs == vol_rest and (mask & 1) == 0):
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


def _inside(edges, n: int, ids: np.ndarray):
    """The edges (u, v, w) with both ends in ids, in edge order, their ends
    renumbered to positions in ids as `Graph.induce_with_loops` does."""
    u, v, w = edges
    local = np.full(n, -1, dtype=np.int64)
    local[ids] = np.arange(ids.size)
    a, b = local[u], local[v]
    keep = (a >= 0) & (b >= 0)
    return a[keep], b[keep], w[keep]


def _certified_expander(H: Graph, deg_g: np.ndarray, phi_limit: float) -> bool:
    """True when Cheeger's inequality proves every cut of H has Phi' > phi_limit.

    N = D_g^{-1/2} L_H D_g^{-1/2}, L_H the Laplacian of H's nonloop edges,
    D_g = diag(deg_g).  The test vector 1_S/Vol(S) - 1_R/Vol(R) of a cut
    (S, R) gives lambda_2(N) <= 2 w_H(S, R) / min(Vol(S), Vol(R)) (the easy
    direction of Cheeger's inequality), so lambda_2(N) > c = 2 (1 + 1e-6)
    phi_limit suffices.  By interlacing it holds when M = N - cI + z z^T is
    positive definite, for any z; z = sqrt(deg_g) scaled to squared norm
    1 + c has N z = 0, so M keeps N's other eigenvalues less c and turns
    the 0 into 1.  A Cholesky factorization of M - err I decides it.  When
    it completes, R^T R = A + dA for the computed A with ||dA||_2 <=
    n gamma_{n+1} ||A + dA||_2 (Higham, *Accuracy and Stability*, Thm 10.3,
    and || |R^T| |R| ||_2 <= n ||R||_2^2); building A rounds each entry by
    at most (n + 5) u times the magnitudes summed into it.  With deg_h the
    nonloop H-degrees, ||N||_2 and || |N| ||_2 are at most 2 max(deg_h /
    deg_g), so ||A||_2 <= K + err, K = 2 max(deg_h / deg_g) + 1 + 2c; both
    errors stay below g (K + err), g = 2 (n + 1)^2 u, which err = g K /
    (1 - g) equals, so M itself is positive definite.  The margin does not
    cover the rounding of the sweep's own cut sums: where a float sweep
    would report a cut that the certificate disproves, the certified
    Expander verdict is the correct one.  Skipped (False) when some
    deg_g <= 0, n == 1 or n > CERTIFY_LIMIT.
    """
    n = H.n
    if n <= 1 or n > CERTIFY_LIMIT or not np.all(deg_g > 0):
        return False
    nonloop = H.edge_u != H.edge_v
    u, v, w = H.edge_u[nonloop], H.edge_v[nonloop], H.edge_w[nonloop]
    deg_h = np.bincount(u, w, n) + np.bincount(v, w, n)
    c = 2.0 * (1.0 + 1e-6) * phi_limit
    g = (n + 1) ** 2 * float(np.finfo(np.float64).eps)  # 2 (n + 1)^2 u
    err = g * (2.0 * float(np.max(deg_h / deg_g)) + 1.0 + 2.0 * c) / (1.0 - g)
    # D_g^{1/2} (M - err I) D_g^{1/2} = L_H + (1 + c) deg_g deg_g^T / Vol - (c + err) D_g
    mat = np.outer(deg_g, deg_g * ((1.0 + c) / float(deg_g.sum())))
    np.add.at(mat, (u, v), -w)
    np.add.at(mat, (v, u), -w)
    mat[np.diag_indices(n)] += deg_h - (c + err) * deg_g
    scale = 1.0 / np.sqrt(deg_g)
    mat *= scale[:, None]
    mat *= scale[None, :]
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _components(edges, active: np.ndarray) -> list[np.ndarray]:
    """Connected components of the active vertices over the nonloop edges."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    sub = np.flatnonzero(active)
    a, b, _ = _inside(edges, active.size, sub)
    mat = csr_matrix((np.ones(a.size), (a, b)), shape=(sub.size, sub.size))
    ncomp, labels = connected_components(mat, directed=False)
    return [sub[labels == c] for c in range(ncomp)]


def _second_vector(edges, deg_h: np.ndarray, active_ids: np.ndarray) -> np.ndarray:
    """Second eigenvector of the lazy walk matrix W = I - N_h / 2 on the
    active set, from H's nonloop edges (u, v, w) and degrees deg_h:
    W = (I + D_h^{-1/2} A D_h^{-1/2}) / 2, with the loops plus the degree
    lost to peeled vertices on A's diagonal.

    Every row of A sums to the vertex's full H-degree, so t = sqrt(deg) /
    ||sqrt(deg)|| is the top eigenvector, eigenvalue 1, and a sparse cut
    puts lambda_2 just below it, a near-tie on which Lanczos is slow.  So
    one `eigsh` call (ARPACK's Lanczos) finds the top eigenvector of
    x -> W x - t (t @ x), W with t's eigenvalue moved to 0, from the fixed
    start vector x0 = sin(1 + 0.7 i) less its t part; a connected pair
    takes the closed form, the unit vector orthogonal to t.  The sign makes
    x0 @ vec nonnegative, the sign that a power iteration from x0 would
    converge to.  When Lanczos exhausts x0's Krylov space, ARPACK restarts
    from a random vector (a 12-vertex star does); with a degenerate
    lambda_2 that draw picks the returned vector, so each call draws it
    from a fresh generator of fixed seed, and one input gives one vector.
    Raises `SweepNumericFailure` when ARPACK does not converge.
    """
    n_a = active_ids.size
    d = deg_h[active_ids]
    ids = np.arange(n_a)
    x0 = np.sin(1.0 + 0.7 * ids)
    if n_a == 2:
        vec = np.array([math.sqrt(d[1]), -math.sqrt(d[0])])
    else:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
        a, b, w = _inside(edges, deg_h.size, active_ids)
        # both orientations of each edge, edge by edge
        rows, cols = np.column_stack([a, b]).ravel(), np.column_stack([b, a]).ravel()
        vals = np.repeat(w, 2)
        inv_sqrt = 1.0 / np.sqrt(d)
        diag = d - np.bincount(rows, vals, minlength=n_a)  # loops plus peeled-away degree
        W = csr_matrix(
            (np.concatenate([0.5 * vals * inv_sqrt[rows] * inv_sqrt[cols],
                             0.5 + 0.5 * diag / d]),
             (np.concatenate([rows, ids]), np.concatenate([cols, ids]))),
            shape=(n_a, n_a))
        t = np.sqrt(d) / math.sqrt(float(d.sum()))
        deflated = LinearOperator((n_a, n_a), lambda x: W @ x - t * (t @ x), dtype=float)
        try:
            _, vecs = eigsh(deflated, k=1, which="LA", v0=x0 - t * (t @ x0),
                            rng=np.random.default_rng(0))
        except ArpackNoConvergence as exc:
            raise SweepNumericFailure(f"eigsh did not converge: {exc}") from exc
        vec = vecs[:, 0]
    vec /= math.sqrt(float(vec @ vec))
    return vec if x0 @ vec >= 0 else -vec


def _best_sweep_prefix(edges, order: np.ndarray, deg_g: np.ndarray, phi_limit: float):
    """Most balanced prefix cut with estimated sparsity below phi_limit.

    Returns (local_prefix_len, phi_est) or None.  Sparsity of a prefix uses
    the min-side volume within the active set, in original degrees.  An edge
    crosses the prefixes that hold its earlier end but not its later one, so
    the cut weights are a running sum of the weight entering at earlier ends
    less the weight leaving at later ends, each summed in edge order.
    """
    a, b, w = _inside(edges, deg_g.size, order)
    enters = np.bincount(np.minimum(a, b), w, minlength=order.size)
    leaves = np.bincount(np.maximum(a, b), w, minlength=order.size)
    # the prefix of length k + 1 ends at order[k]; the full set is no cut
    cut_w = np.cumsum(enters - leaves)[:-1]
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
) -> BalancedCutOutcome:
    """Polynomial balanced-cut heuristic with the Def-4.1-shaped contract.

    A disconnected H yields an immediate zero-sparsity cut.  Otherwise sweep
    cuts of the Fiedler order (`_second_vector`) with Phi' <= phi are peeled
    off one after another (each measured within the remaining subgraph,
    volumes in original degrees) until the union reaches half the cluster
    volume or no qualifying sweep cut remains.  When the next cut would push
    the union past half, the rest of the cluster (the union's complement,
    with the same cut edges) is returned instead if its Phi' <= phi and it
    is more balanced than the union so far; an unbalanced answer thus still
    means that the sweep found no balanced sparse cut.  Expander is declared
    only when the very first sweep finds no cut with Phi' <= phi, or, before
    any eigensolve, when the Cheeger certificate (`_certified_expander`, up
    to `CERTIFY_LIMIT` vertices) proves that no cut has Phi' <= phi.  Raises
    `SweepNumericFailure` when the first round's eigensolve fails; a later
    round's failure ends the peeling with the cut taken so far.
    """
    deg_g = np.asarray(deg_g, dtype=np.float64)
    if deg_g.shape != (H.n,):
        raise GraphError("deg_g must align with H's vertices")
    vol_c = float(deg_g.sum())
    if H.n <= 1 or vol_c <= 0:
        return EXPANDER
    phi_limit = phi * (1.0 + REL_SLACK)
    if _certified_expander(H, deg_g, phi_limit):
        return EXPANDER
    nonloop = H.edge_u != H.edge_v
    edges = (H.edge_u[nonloop], H.edge_v[nonloop], H.edge_w[nonloop])

    active = np.ones(H.n, dtype=bool)
    taken: list[np.ndarray] = []
    vol_taken = 0.0
    half = vol_c / 2.0

    while True:
        comps = _components(edges, active)
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
                vec = _second_vector(edges, H.deg, comp)
            except SweepNumericFailure:
                if taken:
                    break
                raise
            order = comp[np.lexsort((comp, vec))]
            found = _best_sweep_prefix(edges, order, deg_g, phi_limit)
            if found is not None:
                k_pref, _ = found
                prefix = np.sort(order[:k_pref])
                rest = np.sort(order[k_pref:])
                round_cut = prefix if deg_g[prefix].sum() <= deg_g[rest].sum() else rest
        if round_cut is None:
            break
        vol_round = float(deg_g[round_cut].sum())
        if vol_taken + vol_round > half * (1.0 + REL_SLACK):
            # the rest of the cluster has the union's cut edges: return it
            # when it is sparse and more balanced than what was taken
            rest_mask = active.copy()
            rest_mask[round_cut] = False
            rest = np.flatnonzero(rest_mask)
            vol_rest = float(deg_g[rest].sum())
            if vol_rest > vol_taken:
                cut_w = H.cut_weight(rest)
                if cut_w <= phi_limit * vol_rest:
                    return BalancedCutOutcome(
                        False, cut=rest, sparsity_estimate=cut_w / vol_rest,
                        balance=vol_rest / vol_c,
                    )
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
