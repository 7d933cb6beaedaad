"""Differential tests of the subset-sum cut enumerator.

`enumerate_cut_stats` fills whole cut-weight and volume tables from the
Laplacian quadratic form.  The reference below is the per-edge broadcast it
replaced: every mask against every edge, plus a mask-by-vertex volume
product.  Integer and dyadic weights sum exactly on both sides, so the
batches must be equal bit for bit; arbitrary floats may differ by rounding.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powercut import Graph, SparsifierParams, exhaustive_balanced_cut, gnp_graph, sample
from powercut.graph import enumerate_cut_stats, mask_to_set, subset_sums

from conftest import oracle_balanced_cut

FAST = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

WEIGHTS = {
    "integer": st.integers(1, 9).map(float),
    "dyadic": st.integers(1, 64).map(lambda k: k / 16.0),
    "float": st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
}


def reference_cut_stats(G, batch=1 << 16):
    """The per-edge broadcast enumerator: O(m) work for every mask."""
    n = G.n
    if n < 2:
        return
    total = G.total_volume
    eu, ev, ew = G.edge_u, G.edge_v, G.edge_w
    vids = np.arange(n, dtype=np.int64)
    top = 1 << (n - 1)
    for start in range(1, top, batch):
        masks = np.arange(start, min(start + batch, top), dtype=np.int64)
        bits_u = (masks[:, None] >> eu[None, :]) & 1
        bits_v = (masks[:, None] >> ev[None, :]) & 1
        cw = ((bits_u != bits_v) * ew[None, :]).sum(axis=1)
        in_s = ((masks[:, None] >> vids[None, :]) & 1).astype(np.float64)
        vol_s = in_s @ G.deg
        vol_small = np.minimum(vol_s, total - vol_s)
        yield masks, cw, vol_small, vol_s


@st.composite
def multigraphs(draw, weights, max_n=12):
    """Loops, parallel edges and isolated (zero-degree) vertices included."""
    n = draw(st.integers(2, max_n))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends, weights), max_size=3 * n))
    return Graph(n, edges)


@FAST
@given(data=st.data(), kind=st.sampled_from(sorted(WEIGHTS)),
       batch=st.sampled_from([1, 7, 1 << 16]))
def test_enumerator_matches_per_edge_reference(data, kind, batch):
    G = data.draw(multigraphs(WEIGHTS[kind]))
    got = list(enumerate_cut_stats(G, batch))
    want = list(reference_cut_stats(G, batch))
    assert len(got) == len(want) == -(-((1 << (G.n - 1)) - 1) // batch)
    # rounding of a float sum is relative to the weights summed, not to a
    # cut that cancels to (near) zero
    atol = 0.0 if kind != "float" else 1e-12 * max(1.0, 2.0 * G.edge_w.sum())
    for g, w in zip(got, want):
        assert np.array_equal(g[0], w[0])
        for a, b in zip(g[1:], w[1:]):
            if kind == "float":
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=atol)
            else:
                assert np.array_equal(a, b)


@FAST
@given(x=st.lists(st.integers(-50, 50).map(float), max_size=14))
def test_subset_sums_match_mask_loop(x):
    table = subset_sums(np.array(x))
    assert table.size == 1 << len(x)
    for s in range(table.size):
        assert table[s] == sum(x[v] for v in mask_to_set(s, len(x)).tolist())


def test_enumerator_single_vertex_and_wide_graph():
    assert list(enumerate_cut_stats(Graph(1, [(0, 0, 2.0)]))) == []
    # 15 mask bits: the low and the high tables both take part
    rng = np.random.default_rng(5)
    n = 16
    u, v = rng.integers(0, n, 60), rng.integers(0, n, 60)
    G = Graph.from_arrays(n, u, v, rng.integers(1, 5, 60).astype(float))
    for g, w in zip(enumerate_cut_stats(G, 5000), reference_cut_stats(G, 5000)):
        for a, b in zip(g, w):
            assert np.array_equal(a, b)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(3, 9), p=st.floats(0.3, 0.9), seed=st.integers(0, 10**6),
       ups=st.sampled_from([0.5, 1.0, 2.0]), phi=st.floats(0.05, 0.95))
def test_exhaustive_on_sample_with_original_degrees(n, p, seed, ups, phi):
    # H is a reweighted sample of G, so the volumes in G.deg differ from H.deg
    G = gnp_graph(n, p, seed=seed)
    H = sample(G, SparsifierParams(delta=0.25, eps=0.5, upsilon_override=ups, seed=seed))
    out = exhaustive_balanced_cut(H, G.deg, phi, 0.0)
    is_exp, best = oracle_balanced_cut(H, G.deg, phi)
    assert out.expander == is_exp
    if not is_exp:
        assert tuple(out.cut.tolist()) == best
