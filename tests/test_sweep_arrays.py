"""Differential tests of the array-based spectral sweep.

The reference below builds the sweep from scalar loops over the same nonloop
edge arrays (u, v, w): per-vertex Python adjacency lists, a dense
`numpy.linalg.eigh` of the lazy walk matrix built entry by entry, and a
prefix scan that adds each edge's weight at its earlier and later end, edge
by edge, then keeps a running sum.  Components and prefixes must be equal
bit for bit.  The eigenvector must match the dense oracle to
`VEC_TOL` wherever its eigenvalue stands `GAP` apart from its neighbours;
where the oracle also fixes the sweep order, whole sweeps must agree outcome
for outcome, and elsewhere the sweep must still keep its contract.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from powercut import Graph
from powercut import cuts
from powercut.graph import REL_SLACK

FAST = settings(max_examples=80, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# the oracle's vector counts as well posed when lambda_2 of the walk matrix is
# GAP away from 1 and from lambda_3; the solvers' vectors then agree to
# VEC_TOL, and the sign rule (x0 @ vec >= 0) is fixed when |x0 @ vec| clears
# SIGN_MARGIN
GAP, VEC_TOL, SIGN_MARGIN = 1e-4, 1e-8, 1e-6

WEIGHTS = st.one_of(
    st.integers(1, 9).map(float),
    st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
)


# -- the scalar reference -------------------------------------------------------


def nonloop_edges(H: Graph):
    """H's nonloop edge arrays (u, v, w), as `sweep_balanced_cut` takes them."""
    keep = H.edge_u != H.edge_v
    return H.edge_u[keep], H.edge_v[keep], H.edge_w[keep]


def adjacency(edges, n):
    """adj[v] = list of (nbr, w) over the edges, in edge order."""
    adj = [[] for _ in range(n)]
    for u, v, w in zip(*(x.tolist() for x in edges)):
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def ref_components(edges, active):
    adj = adjacency(edges, active.size)
    sub = np.flatnonzero(active)
    pos = -np.ones(active.size, dtype=np.int64)
    pos[sub] = np.arange(sub.size)
    rows, cols = [], []
    for u in sub.tolist():
        for v, _ in adj[u]:
            if active[v]:
                rows.append(pos[u])
                cols.append(pos[v])
    mat = csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(sub.size, sub.size)
    )
    ncomp, labels = connected_components(mat, directed=False)
    return [sub[labels == c] for c in range(ncomp)]


def ref_walk_matrix(edges, deg_h, active_ids):
    """W = I - N_h / 2 on the active set, dense, summed edge by edge."""
    adj = adjacency(edges, deg_h.size)
    n_a = active_ids.size
    pos = {v: i for i, v in enumerate(active_ids.tolist())}
    d = deg_h[active_ids]
    W = np.zeros((n_a, n_a))
    inner = np.zeros(n_a)
    for u in active_ids.tolist():
        for v, w in adj[u]:
            if v in pos:
                W[pos[u], pos[v]] += 0.5 * w / math.sqrt(d[pos[u]] * d[pos[v]])
                inner[pos[u]] += w
    for i in range(n_a):
        W[i, i] = 0.5 + 0.5 * (d[i] - inner[i]) / d[i]
    return W


def ref_second_vector(edges, deg_h, active_ids):
    """(vector, gap, sign margin): the second eigenvector of the walk matrix
    by dense `eigh`, signed so that x0 @ vec >= 0, with the distance from
    its eigenvalue to the nearest other one and |x0 @ vec|."""
    mu, vecs = np.linalg.eigh(ref_walk_matrix(edges, deg_h, active_ids))
    vec = vecs[:, -2]
    x0 = np.array([math.sin(1.0 + 0.7 * i) for i in range(active_ids.size)])
    if x0 @ vec < 0:
        vec = -vec
    gap = min(mu[-1] - mu[-2], mu[-2] - mu[-3] if mu.size > 2 else math.inf)
    return vec, gap, abs(float(x0 @ vec))


def ref_best_sweep_prefix(edges, order, deg_g, phi_limit):
    pos = {v: i for i, v in enumerate(order.tolist())}
    # an edge adds its weight where its earlier end enters the prefix and
    # takes it away where its later end does
    enters, leaves = [0.0] * order.size, [0.0] * order.size
    for u, v, w in zip(*(x.tolist() for x in edges)):
        if u in pos and v in pos:
            enters[min(pos[u], pos[v])] += w
            leaves[max(pos[u], pos[v])] += w
    vol_total = float(deg_g[order].sum())
    cut_w = 0.0
    vol_pref = 0.0
    best = None
    best_side = -1.0
    for idx, v in enumerate(order[:-1].tolist()):
        cut_w += enters[idx] - leaves[idx]
        vol_pref += float(deg_g[v])
        side = min(vol_pref, vol_total - vol_pref)
        if side <= 0:
            continue
        phi_est = cut_w / side
        if phi_est <= phi_limit and side > best_side:
            best_side = side
            best = (idx + 1, phi_est)
    return best


def ref_sweep(H, deg_g, phi):
    """`sweep_balanced_cut` with the scalar helpers and the dense oracle
    swapped in; returns (outcome, one flag per eigensolve round telling
    whether that round's order is fixed).

    A round's order is fixed when its vector is well posed, its sign is
    fixed, and its entries lie more than 2 * VEC_TOL apart, so that any
    vector within VEC_TOL of the oracle sorts the vertices the same way."""
    fixed = []

    def second_vector(edges, deg_h, active_ids):
        vec, gap, margin = ref_second_vector(edges, deg_h, active_ids)
        spread = np.diff(np.sort(vec)).min()
        fixed.append(gap > GAP and margin > SIGN_MARGIN and spread > 2.0 * VEC_TOL)
        return vec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuts, "_components", ref_components)
        mp.setattr(cuts, "_second_vector", second_vector)
        mp.setattr(cuts, "_best_sweep_prefix", ref_best_sweep_prefix)
        return cuts.sweep_balanced_cut(H, deg_g, phi), fixed


def assert_contract(out, H, deg_g, phi):
    """A cut keeps its sparsity estimate within phi and its volume within
    half the cluster's, and the estimate and balance describe that cut."""
    if out.expander:
        return
    vol_s, vol_c = float(deg_g[out.cut].sum()), float(deg_g.sum())
    assert 0 < vol_s <= vol_c / 2.0 * (1.0 + REL_SLACK)
    assert out.sparsity_estimate <= phi * (1.0 + REL_SLACK)
    assert out.sparsity_estimate == pytest.approx(H.cut_weight(out.cut) / vol_s)
    assert out.balance == pytest.approx(vol_s / vol_c)


def check_sweep_against_oracle(H, deg_g, phi):
    """The sweep's outcome equals the oracle sweep's where every round's
    order is fixed, and keeps the contract everywhere; returns the oracle
    sweep's per-round flags (see `ref_sweep`)."""
    got = cuts.sweep_balanced_cut(H, deg_g, phi)
    want, fixed = ref_sweep(H, deg_g, phi)
    assert_contract(got, H, deg_g, phi)
    if all(fixed):
        assert outcome(got) == outcome(want)
    return fixed


def sweep_draws(check):
    """Runs check(H, deg_g, phi) -> round flags over FAST's draws and
    returns (draws that reached an eigensolve, those whose outcome was
    compared with the oracle sweep's)."""
    reached = compared = 0

    @FAST
    @given(H=multigraphs(), phi=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
           scale=st.sampled_from([None, 1.0, 2.5]))
    def run(H, phi, scale):
        nonlocal reached, compared
        # deg_g stands for original-graph degrees, which may exceed H's
        deg_g = H.deg if scale is None else H.deg * scale + (np.arange(H.n) % 3)
        fixed = check(H, deg_g, phi)
        if fixed:
            reached += 1
            compared += all(fixed)
            event("order fixed in every round" if all(fixed) else "order not fixed")

    run()
    return reached, compared


def assert_mostly_compared(reached, compared):
    # ties in the integer-weighted draws leave some orders open; without
    # this floor the outcome comparison could quietly cover no draw at all
    assert reached >= 40 and compared >= 0.75 * reached


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


# -- the helpers, one by one ------------------------------------------------------


@FAST
@given(case=peeled())
def test_components_match_reference(case):
    H, active = case
    edges = nonloop_edges(H)
    got = cuts._components(edges, active)
    want = ref_components(edges, active)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]


def _ring(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)]), np.ones(n, dtype=bool)


@FAST
@given(case=peeled())
@example(case=_ring(12))  # a double lambda_2
@example(case=_ring(13))
@example(
    # parallel edges (0, 1), a loop at 1, and degree peeled away from 2 and
    # 3 with vertex 5
    case=(Graph(6, [(0, 1, 1.5), (0, 1, 2.0), (1, 1, 3.0), (1, 2, 0.7), (2, 3, 1.1),
                    (2, 5, 0.3), (3, 5, 2.5), (4, 4, 1.0)]),
          np.array([True, True, True, True, True, False])),
)
@example(case=(Graph.from_arrays(16, *np.random.default_rng(3).integers(0, 16, (2, 40)),
                                 np.random.default_rng(4).uniform(0.5, 2.0, 40)),
               np.ones(16, dtype=bool)))
def test_second_vector_matches_dense_oracle(case):
    H, active = case
    edges = nonloop_edges(H)
    for comp in ref_components(edges, active):
        if comp.size < 2:
            continue
        got = cuts._second_vector(edges, H.deg, comp)
        want, gap, margin = ref_second_vector(edges, H.deg, comp)
        assert got.shape == want.shape and np.linalg.norm(got) == pytest.approx(1.0)
        # an eigenvector of lambda_2 even where lambda_2 is degenerate
        W = ref_walk_matrix(edges, H.deg, comp)
        lam = float(want @ W @ want)
        assert np.abs(W @ got - lam * got).max() <= 1e-7
        if gap > GAP:
            sign = 1.0 if margin > SIGN_MARGIN else np.sign(got @ want)
            assert np.abs(got - sign * want).max() <= VEC_TOL


def _star(n, extra=()):
    return Graph(n, [(0, v) for v in range(1, n)] + list(extra))


@pytest.mark.parametrize("H", [
    _ring(12)[0],
    # on the stars Lanczos exhausts x0's Krylov space, ARPACK draws a
    # restart vector, and that draw picks the vector returned from the
    # multiple lambda_2; from an unseeded generator the last two differed
    # on almost every call
    _star(12),
    _star(8, [(v, v, 1.0) for v in range(1, 8)]),
    _star(16, [(0, 0, 5.0)]),
], ids=["cycle-12", "star-12", "star-8-leaf-loops", "star-16-hub-loop"])
def test_second_vector_is_reproducible(H):
    edges, ids = nonloop_edges(H), np.arange(H.n)
    first = cuts._second_vector(edges, H.deg, ids)
    for _ in range(20):
        assert cuts._second_vector(edges, H.deg, ids).tobytes() == first.tobytes()


def test_second_vector_on_a_long_planted_path():
    # 20 random 12-vertex blocks in a path, one bridge between neighbours:
    # lambda_2 of the walk matrix lies within 1e-4 of its top eigenvalue 1,
    # the near-tie that deflating sqrt(deg) takes out of the eigensolve
    rng = np.random.default_rng(1)
    blocks, size = 20, 12
    u, v = [], []
    for b in range(blocks):
        a, c = rng.integers(0, size, (2, 4 * size)) + b * size
        u += a.tolist()
        v += c.tolist()
        if b + 1 < blocks:
            u.append(b * size)
            v.append((b + 1) * size + 1)
    H = Graph.from_arrays(blocks * size, u, v, rng.uniform(0.5, 2.0, len(u)))
    edges, ids = nonloop_edges(H), np.arange(H.n)
    assert len(ref_components(edges, np.ones(H.n, dtype=bool))) == 1
    got = cuts._second_vector(edges, H.deg, ids)
    want, gap, margin = ref_second_vector(edges, H.deg, ids)
    assert gap < GAP and margin > SIGN_MARGIN
    # a vector error of order eps / gap: VEC_TOL at GAP, scaled up below it
    assert np.abs(got - want).max() <= VEC_TOL * GAP / gap
    assert np.array_equal(np.lexsort((ids, got)), np.lexsort((ids, want)))
    root_deg = np.sqrt(H.deg)
    assert abs(got @ root_deg) <= 1e-9 * np.linalg.norm(root_deg)


@st.composite
def sweep_orders(draw):
    """A peeled graph, a sweep order of its active vertices, original
    degrees (some zero) and a sparsity limit.  Each weight is scaled by a
    factor in [1, 2) with a full 52-bit mantissa, so the cut weights come
    out of sums whose rounding depends on the order of summation."""
    H, active = draw(peeled())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = Graph.from_arrays(H.n, H.edge_u, H.edge_v, H.edge_w * rng.uniform(1.0, 2.0, H.num_edges))
    ids = np.flatnonzero(active)
    order = ids[np.array(draw(st.permutations(range(ids.size))), dtype=np.int64)]
    deg_g = H.deg * np.array(draw(st.lists(
        st.sampled_from([0.0, 1.0, 1.5, 3.0]), min_size=H.n, max_size=H.n)))
    return H, order, deg_g, draw(st.floats(0.0, 10.0))


_PEELED_ENDS = Graph(6, [(4, 5, 2.1), (1, 4, 2.6), (0, 2, 0.8), (2, 1, 2.7), (0, 3, 2.6),
                         (3, 1, 0.2), (2, 5, 0.5), (3, 3, 0.9)])


@FAST
@given(case=sweep_orders())
@example(
    # vertices 4 and 5 peeled: an edge between them and edges from active
    # vertices to them; the cut weight of the chosen prefix, summed as
    # w_inside - 2 * w_to_prefix per vertex, differs in its last bit
    case=(_PEELED_ENDS, np.array([2, 0, 3, 1]), _PEELED_ENDS.deg, 1.0),
)
def test_best_sweep_prefix_matches_scan(case):
    H, order, deg_g, phi_limit = case
    edges = nonloop_edges(H)
    got = cuts._best_sweep_prefix(edges, order, deg_g, phi_limit)
    want = ref_best_sweep_prefix(edges, order, deg_g, phi_limit)
    assert got == want
    if got is not None:
        assert type(got[0]) is int and type(got[1]) is float


# -- the whole sweep ---------------------------------------------------------------


def outcome(out):
    if out.expander:
        return "expander"
    return (out.cut.tolist(), out.sparsity_estimate, out.balance)


def test_sweep_outcome_matches_reference():
    assert_mostly_compared(*sweep_draws(check_sweep_against_oracle))


def test_sweep_outcome_on_planted_blocks_matches_reference():
    rng = np.random.default_rng(7)
    blocks, size = 4, 30
    u, v = [], []
    for b in range(blocks):
        a, c = rng.integers(0, size, (2, 6 * size)) + b * size
        u += a.tolist() + [b * size]
        v += c.tolist() + [((b + 1) % blocks) * size + 1]
    H = Graph.from_arrays(blocks * size, u, v, rng.uniform(0.5, 2.0, len(u)))
    # cuts of three peeling histories; at phi 0.1 a budgeted power
    # iteration gave up, and the exact vector finds a cut
    for phi in (0.005, 0.02, 0.1):
        fixed = check_sweep_against_oracle(H, H.deg, phi)
        assert fixed and all(fixed)
        assert not cuts.sweep_balanced_cut(H, H.deg, phi).expander
