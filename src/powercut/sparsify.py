"""Degree-based edge sampling and exhaustive sparsifier verification.

The sampler keeps each edge {u, v} independently with probability
``p_e = min(1, Y * (1/deg(u) + 1/deg(v)))`` and weight ``1/p_e``, where Y is
the oversampling factor.  At the default (formula) Y this is extremely
conservative at small n (all p_e = 1); tests shrink Y through the override
knobs to make the subsampling observable.

The checkers enumerate every nontrivial cut (so they only run on clusters of
at most 22 vertices) and validate the multiplicative/additive sparsifier
inequality, with volumes always measured in the original graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BRUTE_FORCE_LIMIT, REL_SLACK, Graph, GraphError, check_partition, enumerate_cut_stats, mask_to_set


def upsilon(n: int, eps: float, delta: float, fail_exponent: float) -> float:
    """Oversampling factor 6(C+2)/(delta*eps) * 2*log2(n) * ln(n)."""
    if n < 2:
        raise GraphError("upsilon needs n >= 2")
    return (
        6.0 * (fail_exponent + 2.0) / (delta * eps)
        * 2.0 * math.log2(n) * math.log(n)
    )


@dataclass(frozen=True)
class SparsifierParams:
    """(delta, eps) error targets plus the oversampling configuration.

    The effective oversampling factor is `upsilon_override` when set, else
    `upsilon_scale` times the formula value.  `fail_exponent` is the C in the
    n^-C failure probability.
    """

    delta: float
    eps: float
    fail_exponent: float = 1.0
    upsilon_scale: float = 1.0
    upsilon_override: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise GraphError("need delta in (0, 1)")
        if not (0.0 < self.eps < 1.0):
            raise GraphError("need eps in (0, 1)")
        if self.upsilon_scale <= 0:
            raise GraphError("upsilon_scale must be positive")
        if self.upsilon_override is not None and self.upsilon_override <= 0:
            raise GraphError("upsilon_override must be positive")

    def upsilon_for(self, n: int) -> float:
        if self.upsilon_override is not None:
            return self.upsilon_override
        return self.upsilon_scale * upsilon(max(n, 2), self.eps, self.delta, self.fail_exponent)


def edge_probability(deg_u: float, deg_v: float, ups: float) -> float:
    """Keep probability min(1, Y*(1/deg_u + 1/deg_v)); degrees must be positive."""
    if deg_u <= 0 or deg_v <= 0:
        raise GraphError("edge incident to zero-degree vertex")
    return min(1.0, ups * (1.0 / deg_u + 1.0 / deg_v))


def edge_probabilities(G: Graph, ups: float) -> np.ndarray:
    if G.num_edges == 0:
        return np.zeros(0)
    du = G.deg[G.edge_u]
    dv = G.deg[G.edge_v]
    if np.any(du <= 0) or np.any(dv <= 0):
        raise GraphError("edge incident to zero-degree vertex")
    return np.minimum(1.0, ups * (1.0 / du + 1.0 / dv))


def sample(G: Graph, params: SparsifierParams) -> Graph:
    """Draw one sparsifier: keep each edge with p_e, reweight by 1/p_e.

    Self-loops are sampled like any other edge under the once-counted degree
    convention.  The expected weight of every edge equals its input weight.
    """
    if G.num_edges == 0:
        return Graph(G.n)
    ups = params.upsilon_for(G.n)
    p = edge_probabilities(G, ups)
    rng = np.random.default_rng(params.seed & ((1 << 64) - 1))
    keep = rng.random(G.num_edges) < p
    return Graph.from_arrays(G.n, G.edge_u[keep], G.edge_v[keep], G.edge_w[keep] / p[keep])


@dataclass
class CutCheckReport:
    ok: bool
    worst_violation: float
    worst_cut: np.ndarray | None
    cuts_checked: int


def check_cut_sparsifier(G: Graph, H: Graph, delta: float, eps: float) -> CutCheckReport:
    """Exhaustively test the (delta, eps)-cut-sparsifier inequality.

    For every nontrivial cut S (volumes measured in G):
        (1-delta) w_G(S) - eps*Vol(S) <= w_H(S) <= (1+delta) w_G(S) + eps*Vol(S)
    Checking eps * min(Vol(S), Vol(compl)) covers both orientations of each
    cut.  Reports the maximum normalized violation.
    """
    if G.n != H.n:
        raise GraphError("sparsifier must share the vertex set")
    if G.n > BRUTE_FORCE_LIMIT:
        raise GraphError(f"too large for exhaustive check: n={G.n}")
    worst = -math.inf
    worst_mask = None
    checked = 0
    for (masks, cw_g, vol_small, _), (_, cw_h, _, _) in zip(
        enumerate_cut_stats(G), enumerate_cut_stats(H)
    ):
        checked += masks.size
        slack = eps * vol_small
        lower = (1.0 - delta) * cw_g - slack - cw_h
        upper = cw_h - (1.0 + delta) * cw_g - slack
        viol = np.maximum(lower, upper)
        scale = np.maximum(1.0, (1.0 + delta) * cw_g + slack)
        norm = viol / scale
        i = int(np.argmax(norm))
        if norm[i] > worst:
            worst = float(norm[i])
            worst_mask = int(masks[i])
    if worst_mask is None:
        # graphs with < 2 vertices have no cuts to violate
        return CutCheckReport(True, -math.inf, None, 0)
    return CutCheckReport(worst <= REL_SLACK, worst, mask_to_set(worst_mask, G.n), checked)


def check_power_partition(G: Graph, H: Graph, clusters, delta: float, eps: float):
    """Check that H{C} sparsifies G{C} for every cluster of the partition.

    Returns (ok, per-cluster reports).  Clusters of one vertex have no
    nontrivial cuts and pass vacuously.
    """
    norm = check_partition(G, clusters)
    reports = []
    ok = True
    for C in norm:
        g_c = G.induce_with_loops(C)
        h_c = H.induce_with_loops(C)
        rep = check_cut_sparsifier(g_c, h_c, delta, eps)
        reports.append(rep)
        ok = ok and rep.ok
    return ok, reports
