"""Shared fixtures and independent pure-Python oracles.

The oracles deliberately avoid the package's vectorized code paths: they
loop over explicit edge lists and enumerate subsets with itertools, so a
bug in the production enumeration cannot hide in its own test.
"""

import itertools
import math

import numpy as np
import pytest

from powercut import Graph


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def c8():
    return cycle_graph(8)


def assert_same_graph(got, want):
    """Equal vertex counts, edge arrays and degrees, dtypes included."""
    assert got.n == want.n
    for name in ("edge_u", "edge_v", "edge_w", "deg"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


# -- independent oracles -------------------------------------------------------


def oracle_volume(G, S):
    S = set(int(v) for v in S)
    total = 0.0
    for u, v, w in G.edge_list():
        if u in S:
            total += w
        if v in S and u != v:
            total += w
    return total


def oracle_cut_weight(G, S):
    S = set(int(v) for v in S)
    return sum(w for u, v, w in G.edge_list() if (u in S) != (v in S))


def oracle_conductance(G, S):
    cw = oracle_cut_weight(G, S)
    vol_s = oracle_volume(G, S)
    vol_rest = oracle_volume(G, range(G.n)) - vol_s
    return cw / min(vol_s, vol_rest)


def oracle_min_conductance(G):
    """Exact min conductance by explicit subset enumeration."""
    verts = list(range(G.n))
    best = math.inf
    best_set = None
    for r in range(1, G.n):
        for S in itertools.combinations(verts, r):
            vol_s = oracle_volume(G, S)
            vol_rest = oracle_volume(G, verts) - vol_s
            if min(vol_s, vol_rest) <= 0:
                continue
            phi = oracle_cut_weight(G, S) / min(vol_s, vol_rest)
            if phi < best:
                best = phi
                best_set = S
    return best, best_set


def oracle_balanced_cut(H, deg_g, phi, slack=1e-9):
    """Independent max-volume sub-phi cut for comparing with the exhaustive
    procedure at delta = 0.  Returns (is_expander, best_set_or_None)."""
    verts = list(range(H.n))
    vol_c = float(np.sum(deg_g))
    best_vol = -1.0
    best_set = None
    for r in range(1, H.n):
        for S in itertools.combinations(verts, r):
            vol_s = float(np.sum([deg_g[v] for v in S]))
            if vol_s <= 0 or vol_s > vol_c / 2:
                continue
            cw = oracle_cut_weight(H, S)
            if cw / vol_s <= phi * (1.0 + slack):
                if vol_s > best_vol or (vol_s == best_vol and tuple(S) < best_set):
                    best_vol = vol_s
                    best_set = tuple(S)
    if best_set is None:
        return True, None
    return False, best_set
