"""Differential tests of the block cut enumerator.

`enumerate_cut_stats` builds cut weights from the Laplacian quadratic form
and volumes from per-part subset sums, one block of the (high, low) mask
grid at a time.  The reference below is the per-edge broadcast it replaced:
every mask against every edge, plus a mask-by-vertex volume product.  The
columns are compared concatenated, so block boundaries do not matter.
Integer and dyadic weights sum exactly on both sides, so the columns must be
equal bit for bit; arbitrary floats may differ by rounding.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powercut import Graph, SparsifierParams, exhaustive_balanced_cut, gnp_graph, sample
from powercut.graph import _BLOCK_MASKS, enumerate_cut_stats, mask_to_set, min_conductance_bruteforce

from conftest import oracle_balanced_cut

FAST = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

WEIGHTS = {
    "integer": st.integers(1, 9).map(float),
    "dyadic": st.integers(1, 64).map(lambda k: k / 16.0),
    "float": st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
}


def reference_cut_stats(G, batch=1 << 13):
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


def columns(blocks):
    """(masks, cw, vol_small, vol_s), each concatenated over the blocks."""
    return [np.concatenate(col) for col in zip(*blocks)]


def assert_matches_reference(G, exact=True):
    got = columns(enumerate_cut_stats(G))
    want = columns(reference_cut_stats(G))
    assert np.array_equal(got[0], np.arange(1, 1 << (G.n - 1)))
    assert np.array_equal(got[0], want[0])
    # rounding of a float sum is relative to the weights summed, not to a
    # cut that cancels to (near) zero
    atol = 1e-12 * max(1.0, 2.0 * G.edge_w.sum())
    for a, b in zip(got[1:], want[1:]):
        if exact:
            assert np.array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=atol)


@st.composite
def multigraphs(draw, weights, max_n=12):
    """Loops, parallel edges and isolated (zero-degree) vertices included."""
    n = draw(st.integers(2, max_n))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends, weights), max_size=3 * n))
    return Graph(n, edges)


@FAST
@given(data=st.data(), kind=st.sampled_from(sorted(WEIGHTS)))
def test_enumerator_matches_per_edge_reference(data, kind):
    G = data.draw(multigraphs(WEIGHTS[kind]))
    assert_matches_reference(G, exact=kind != "float")


@FAST
@given(x=st.lists(st.integers(-50, 50).map(float), max_size=14))
def test_subset_sums_match_mask_loop(x):
    # the last vertex is never in S, so its degree only adds to the total
    deg = np.array(x + [3.0])
    blocks = list(enumerate_cut_stats(Graph(len(deg)), deg=deg))
    if not x:
        assert blocks == []
        return
    masks, _, vol_small, vol_s = columns(blocks)
    assert np.array_equal(masks, np.arange(1, 1 << len(x)))
    for s, vol in zip(masks.tolist(), vol_s.tolist()):
        assert vol == sum(x[v] for v in mask_to_set(s, len(x)).tolist())
    assert np.array_equal(vol_small, np.minimum(vol_s, float(deg.sum()) - vol_s))


def test_enumerator_single_vertex_and_wide_graph():
    assert list(enumerate_cut_stats(Graph(1, [(0, 0, 2.0)]))) == []
    # from 11 mask bits on, a high part splits the grid; from 16 bits on,
    # the grid takes several row blocks
    for n in (16, 17, 20):
        rng = np.random.default_rng(n)
        m = 4 * n
        u, v = rng.integers(0, n, m), rng.integers(0, n, m)
        for kind, w in [("integer", rng.integers(1, 5, m).astype(float)),
                        ("dyadic", rng.integers(1, 64, m) / 16.0),
                        ("float", rng.uniform(1e-3, 1e3, m))]:
            G = Graph.from_arrays(n, u, v, w)
            assert len(list(enumerate_cut_stats(G))) == max(1, (1 << (n - 1)) // _BLOCK_MASKS)
            assert_matches_reference(G, exact=kind != "float")


@pytest.mark.parametrize("check", ["bruteforce", "exhaustive"])
def test_enumeration_peak_memory_at_limit(check):
    # blocks keep the work in O(2^(n/2)) memory: whole 2^21-entry tables of
    # cut weights and volumes took 35 MB at n = 22
    rng = np.random.default_rng(22)
    n = 22
    G = Graph.from_arrays(n, rng.integers(0, n, 80), rng.integers(0, n, 80),
                          rng.integers(1, 5, 80).astype(float))
    run = {
        "bruteforce": lambda: min_conductance_bruteforce(G),
        "exhaustive": lambda: exhaustive_balanced_cut(G, G.deg, 0.3, 1.0 / 16.0),
    }[check]
    run()  # the first call also fills the cached bit tables
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


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
