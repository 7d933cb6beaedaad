"""Differential tests of the array-based spectral sweep.

The reference below is the scalar sweep the CSR arrays replaced: per-vertex
Python adjacency lists, a power iteration that applies the walk twice per
step, and a vertex-by-vertex prefix scan.  Every sum of the array code runs
in the order of these loops, so vectors, prefixes and outcomes must be equal
bit for bit, for any weights.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from powercut import Graph, SweepNumericFailure, barbell_graph, sweep_balanced_cut
from powercut import cuts

FAST = settings(max_examples=80, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

WEIGHTS = st.one_of(
    st.integers(1, 9).map(float),
    st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
)


# -- the scalar reference -------------------------------------------------------


@dataclass
class RefView:
    """Adjacency of H with loops dropped, plus per-vertex loop weights."""

    n: int
    adj: list  # adj[v] = list of (nbr, w) over nonloop edges
    loop: np.ndarray
    deg_h: np.ndarray

    @classmethod
    def from_graph(cls, H: Graph) -> "RefView":
        adj = [[] for _ in range(H.n)]
        loop = np.zeros(H.n)
        for u, v, w in zip(H.edge_u.tolist(), H.edge_v.tolist(), H.edge_w.tolist()):
            if u == v:
                loop[u] += w
            else:
                adj[u].append((v, w))
                adj[v].append((u, w))
        return cls(H.n, adj, loop, H.deg.copy())


def ref_components(view, active):
    sub = np.flatnonzero(active)
    pos = -np.ones(view.n, dtype=np.int64)
    pos[sub] = np.arange(sub.size)
    rows, cols = [], []
    for u in sub.tolist():
        for v, _ in view.adj[u]:
            if active[v]:
                rows.append(pos[u])
                cols.append(pos[v])
    mat = csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(sub.size, sub.size)
    )
    ncomp, labels = connected_components(mat, directed=False)
    return [sub[labels == c] for c in range(ncomp)]


def ref_second_vector(view, active_ids, max_iter, tol):
    n_a = active_ids.size
    pos = -np.ones(view.n, dtype=np.int64)
    pos[active_ids] = np.arange(n_a)
    rows, cols, vals = [], [], []
    inner = np.zeros(n_a)
    active_mask = np.zeros(view.n, dtype=bool)
    active_mask[active_ids] = True
    for u in active_ids.tolist():
        for v, w in view.adj[u]:
            if active_mask[v]:
                rows.append(pos[u])
                cols.append(pos[v])
                vals.append(w)
                inner[pos[u]] += w
    d = view.deg_h[active_ids]
    diag = d - inner
    A = csr_matrix((vals, (rows, cols)), shape=(n_a, n_a))
    inv_sqrt = 1.0 / np.sqrt(d)
    u_top = np.sqrt(d)
    u_top /= np.linalg.norm(u_top)

    x = np.array([math.sin(1.0 + 0.7 * i) for i in range(n_a)])
    x -= u_top * (u_top @ x)
    nrm = np.linalg.norm(x)
    if nrm < 1e-14:
        x = np.ones(n_a)
        x[::2] = -1.0
        x -= u_top * (u_top @ x)
        nrm = np.linalg.norm(x)
    x /= nrm

    def walk(y):
        z = inv_sqrt * y
        z = A @ z + diag * z
        return 0.5 * (y + inv_sqrt * z)

    prev_r = math.inf
    for _ in range(max_iter):
        y = walk(x)
        y -= u_top * (u_top @ y)
        nrm = np.linalg.norm(y)
        if nrm < 1e-14:
            return x
        y /= nrm
        r = float(y @ walk(y))
        if abs(r - prev_r) <= tol * max(1.0, abs(r)):
            return y
        prev_r = r
        x = y
    raise SweepNumericFailure(
        f"power iteration did not stagnate in {max_iter} iterations"
    )


def ref_best_sweep_prefix(view, order, deg_g, phi_limit):
    active_mask = np.zeros(view.n, dtype=bool)
    active_mask[order] = True
    pos = -np.ones(view.n, dtype=np.int64)
    pos[order] = np.arange(order.size)
    vol_total = float(deg_g[order].sum())
    cut_w = 0.0
    vol_pref = 0.0
    best = None
    best_side = -1.0
    for idx, v in enumerate(order[:-1].tolist()):
        w_to_prefix = 0.0
        w_inside = 0.0
        for nbr, w in view.adj[v]:
            if active_mask[nbr]:
                if pos[nbr] < idx:
                    w_to_prefix += w
                w_inside += w
        cut_w += w_inside - 2.0 * w_to_prefix
        vol_pref += float(deg_g[v])
        side = min(vol_pref, vol_total - vol_pref)
        if side <= 0:
            continue
        phi_est = cut_w / side
        if phi_est <= phi_limit and side > best_side:
            best_side = side
            best = (idx + 1, phi_est)
    return best


def ref_sweep(*args, **kw):
    """`sweep_balanced_cut` with the scalar helpers swapped in."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuts, "_ClusterView", RefView)
        mp.setattr(cuts, "_components", ref_components)
        mp.setattr(cuts, "_second_vector", ref_second_vector)
        mp.setattr(cuts, "_best_sweep_prefix", ref_best_sweep_prefix)
        return cuts.sweep_balanced_cut(*args, **kw)


# -- inputs ---------------------------------------------------------------------


@st.composite
def multigraphs(draw, max_n=16):
    """Loops, parallel edges and isolated vertices included."""
    n = draw(st.integers(2, max_n))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends, WEIGHTS), max_size=4 * n))
    if draw(st.booleans()):
        # a path through all but the last vertex: one large component
        edges += [(i, i + 1, draw(WEIGHTS)) for i in range(n - 2)]
    return Graph(n, edges)


@st.composite
def peeled(draw):
    """A graph and an active subset, as left by earlier sweep rounds."""
    H = draw(multigraphs())
    active = np.array(draw(st.lists(st.booleans(), min_size=H.n, max_size=H.n)))
    return H, active


def run(fn, *args):
    try:
        return fn(*args)
    except SweepNumericFailure:
        return SweepNumericFailure


# -- the helpers, one by one ------------------------------------------------------


@FAST
@given(case=peeled())
def test_components_match_reference(case):
    H, active = case
    got = cuts._components(cuts._ClusterView.from_graph(H), active)
    want = ref_components(RefView.from_graph(H), active)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]


@FAST
@given(case=peeled(), max_iter=st.sampled_from([1, 3, 10, 200]),
       tol=st.sampled_from([1e-8, 1e-3]))
def test_second_vector_is_bit_equal(case, max_iter, tol):
    H, active = case
    view, ref = cuts._ClusterView.from_graph(H), RefView.from_graph(H)
    for comp in ref_components(ref, active):
        if comp.size < 2:
            continue
        got = run(cuts._second_vector, view, comp, max_iter, tol)
        want = run(ref_second_vector, ref, comp, max_iter, tol)
        if want is SweepNumericFailure:
            assert got is SweepNumericFailure
        else:
            assert got is not SweepNumericFailure and np.array_equal(got, want)


@FAST
@given(case=peeled(), data=st.data())
def test_best_sweep_prefix_matches_scan(case, data):
    H, active = case
    ids = np.flatnonzero(active)
    order = ids[np.array(data.draw(st.permutations(range(ids.size))), dtype=np.int64)]
    deg_g = H.deg * np.array(data.draw(st.lists(
        st.sampled_from([0.0, 1.0, 1.5, 3.0]), min_size=H.n, max_size=H.n)))
    phi_limit = data.draw(st.floats(0.0, 10.0))
    got = cuts._best_sweep_prefix(cuts._ClusterView.from_graph(H), order, deg_g, phi_limit)
    want = ref_best_sweep_prefix(RefView.from_graph(H), order, deg_g, phi_limit)
    assert got == want
    if got is not None:
        assert type(got[0]) is int and type(got[1]) is float


# -- the whole sweep ---------------------------------------------------------------


def outcome(out):
    if out is SweepNumericFailure:
        return "numeric failure"
    if out.expander:
        return "expander"
    return (out.cut.tolist(), out.sparsity_estimate, out.balance)


@FAST
@given(H=multigraphs(), phi=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
       scale=st.sampled_from([None, 1.0, 2.5]),
       max_iter=st.sampled_from([None, 1, 2, 8]))
def test_sweep_outcome_matches_reference(H, phi, scale, max_iter):
    # deg_g stands for original-graph degrees, which may exceed H's
    deg_g = H.deg if scale is None else H.deg * scale + (np.arange(H.n) % 3)
    args = (H, deg_g, phi, 0.0, 1e-8, max_iter)
    assert outcome(run(cuts.sweep_balanced_cut, *args)) == outcome(run(ref_sweep, *args))


def test_sweep_outcome_on_planted_blocks_matches_reference():
    rng = np.random.default_rng(7)
    blocks, size = 4, 30
    u, v = [], []
    for b in range(blocks):
        a, c = rng.integers(0, size, (2, 6 * size)) + b * size
        u += a.tolist() + [b * size]
        v += c.tolist() + [((b + 1) % blocks) * size + 1]
    H = Graph.from_arrays(blocks * size, u, v, rng.uniform(0.5, 2.0, len(u)))
    # two cuts of different peeling histories, then a numeric failure
    for phi in (0.005, 0.02, 0.1):
        got = outcome(run(cuts.sweep_balanced_cut, H, H.deg, phi, 0.0))
        assert got == outcome(run(ref_sweep, H, H.deg, phi, 0.0))


# -- the step budget -----------------------------------------------------------------


def test_step_budget_is_unchanged():
    # k is the step at which the reference iteration stagnates: a budget of k
    # must succeed and k - 1 must fail, exactly as before
    B = barbell_graph(2, 8, 1)
    comp = np.arange(B.n)
    ref = RefView.from_graph(B)
    k = next(k for k in range(1, 1000)
             if run(ref_second_vector, ref, comp, k, 1e-8) is not SweepNumericFailure)
    assert k > 2
    view = cuts._ClusterView.from_graph(B)
    assert np.array_equal(cuts._second_vector(view, comp, k, 1e-8),
                          ref_second_vector(ref, comp, k, 1e-8))
    with pytest.raises(SweepNumericFailure):
        cuts._second_vector(view, comp, k - 1, 1e-8)
    assert not sweep_balanced_cut(B, B.deg, 0.2, 0.0, max_iter=k).expander
    with pytest.raises(SweepNumericFailure):
        sweep_balanced_cut(B, B.deg, 0.2, 0.0, max_iter=k - 1)


# -- the folded product --------------------------------------------------------------


@FAST
@given(case=peeled(), scale=st.sampled_from([1e-3, 1.0, 1e3]))
@example(
    # parallel edges (0, 1), a loop at 1, an only-diagonal row at 4, and
    # degree peeled away from 2 and 3 with vertex 5
    case=(Graph(6, [(0, 1, 1.5), (0, 1, 2.0), (1, 1, 3.0), (1, 2, 0.7), (2, 3, 1.1),
                    (2, 5, 0.3), (3, 5, 2.5), (4, 4, 1.0)]),
          np.array([True, True, True, True, True, False])),
    scale=1.0,
)
def test_diagonal_last_product_is_bit_equal(case, scale):
    # csr_matvec into zeros over the folded arrays must be A @ z + diag * z
    from scipy.sparse._sparsetools import csr_matvec
    H, active = case
    ids = np.flatnonzero(active)
    if ids.size == 0:
        return
    pos = -np.ones(H.n, dtype=np.int64)
    pos[ids] = np.arange(ids.size)
    rows, cols, vals = cuts._ClusterView.from_graph(H).inside(ids)
    rows, cols = pos[rows], pos[cols]
    diag = H.deg[ids] - np.bincount(rows, vals, minlength=ids.size)
    A = csr_matrix((vals, (rows, cols)), shape=(ids.size, ids.size))
    z = np.random.default_rng(H.n).standard_normal(ids.size) * scale
    got = np.zeros(ids.size)
    csr_matvec(ids.size, ids.size, *cuts._with_diagonal_last(A, diag), z, got)
    assert got.tobytes() == (A @ z + diag * z).tobytes()
