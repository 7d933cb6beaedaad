"""Offline pools draw from G's net graph by the stream's level rule.

`NetGraph.of_graph(G)` holds each of G's pairs once, parallel edges merged
into their summed weight and a loop as the pair (v, v), over G's weighted
degrees.  A draw keeps a pair when its PRF level is at least
min(j_u, j_v), at weight w * 2^min(j_u, j_v).  The tests below check that
rule against a per-pair dict reference, its unbiasedness on weighted
multigraphs, and the net graph's bytes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powercut import (
    DecompParams,
    Graph,
    NetGraph,
    PoolTooLarge,
    SparsifierParams,
    SparsifierPools,
    gnp_graph,
    make_schedule,
)
from powercut import stream as stream_mod
from powercut.prf import MASK64, prf
from powercut.stream import _LEVEL_TAG, StreamError, level_cap, pick_level, vertex_levels

from conftest import assert_same_graph


def weighted_multigraph(n, edges):
    u, v, w = zip(*edges) if edges else ((), (), ())
    return Graph.from_arrays(n, u, v, w)


def reference_draw(G, params):
    """The level rule pair by pair: merge parallel edges in edge order, keep
    a pair when its level is >= min(j_u, j_v), j read from G's weighted
    degrees, and weigh it w * 2^min(j_u, j_v)."""
    n = G.n
    merged = {}
    for u, v, w in G.edge_list():
        merged[(u, v)] = merged.get((u, v), 0.0) + w
    ups = params.upsilon_for(max(n, 1))
    cap = level_cap(n, ups)
    j = [pick_level(float(d), ups, cap) for d in G.deg]
    level_seed = prf(params.seed, _LEVEL_TAG)
    kept = []
    for (u, v), w in sorted(merged.items()):
        # leading ones of the pair's PRF word: leading zeros of its complement
        level = 64 - (~prf(level_seed, u, v) & MASK64).bit_length()
        if level >= min(j[u], j[v]):
            kept.append((u, v, w * 2.0 ** min(j[u], j[v])))
    return weighted_multigraph(n, kept)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.floats(0.125, 8.0, allow_nan=False, allow_infinity=False))
    return weighted_multigraph(n, draw(st.lists(pair, max_size=40)))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(G=multigraphs(), ups=st.sampled_from([0.3, 0.6, 1.0, 2.5, None]),
       seed=st.integers(0, 2**64 - 1))
def test_net_graph_of_g_draws_what_the_per_pair_reference_draws(G, ups, seed):
    params = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=ups, seed=seed)
    assert_same_graph(NetGraph.of_graph(G).recover_sparsifier(params), reference_draw(G, params))


def test_net_graph_of_g_merges_parallel_edges_and_keeps_loops():
    G = weighted_multigraph(4, [(2, 1, 1.5), (0, 0, 2.0), (1, 2, 0.25), (3, 0, 1.0),
                                (0, 0, 0.5)])
    net = NetGraph.of_graph(G)
    assert net.keys.tolist() == [0 * 4 + 0, 0 * 4 + 3, 1 * 4 + 2]
    assert net.weights.tolist() == [2.5, 1.0, 1.75]
    assert net.counts is None
    assert net.deg is G.deg
    assert net.memory_bytes() == 8 * 4 + 16 * 3
    # at the formula Y every vertex sits at level 0: the draw is G's pairs
    H = net.recover_sparsifier(SparsifierParams(delta=0.25, eps=0.5, seed=1))
    assert H.edge_list() == [(0, 0, 2.5), (0, 3, 1.0), (1, 2, 1.75)]
    assert np.array_equal(H.deg, G.deg)


def test_offline_pools_take_no_stream_rows():
    G = gnp_graph(10, 0.5, seed=1)
    params = DecompParams(eps=0.3, quality_k=2, seed=1)
    pools = SparsifierPools.offline(G, params, make_schedule(params, G.n))
    with pytest.raises(StreamError, match="no stream rows"):
        pools.feed_many([(0, 1, 1)])
    with pytest.raises(StreamError, match="no stream rows"):
        pools.feed((0, 1, 1))
    (net,) = pools.all_states()
    assert net.keys.size == G.num_edges
    assert pools.memory_bytes() == 8 * G.n + 16 * G.num_edges


def test_net_graph_of_g_checks_the_cap_before_it_allocates(monkeypatch):
    G = gnp_graph(10, 0.5, seed=1)
    need = 8 * G.n + 16 * G.num_edges
    monkeypatch.setattr(stream_mod, "POOL_BYTE_CAP", need - 1)
    with pytest.raises(PoolTooLarge, match=f"POOL_BYTE_CAP = {need - 1}"):
        NetGraph.of_graph(G)
    monkeypatch.setattr(stream_mod, "POOL_BYTE_CAP", need)
    assert NetGraph.of_graph(G).memory_bytes() == need


@settings(max_examples=100, deadline=None, derandomize=True)
@given(deg=st.lists(st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6)), max_size=30),
       ups=st.floats(0.01, 100.0), max_level=st.integers(0, 20))
def test_vertex_levels_are_the_scalar_rule(deg, ups, max_level):
    got = vertex_levels(np.array(deg, dtype=np.float64), ups, max_level)
    assert got.dtype == np.int64
    assert got.tolist() == [pick_level(float(d), ups, max_level) for d in deg]


# The level rule on weighted multigraphs, checked as
# `test_level_rule_keeps_every_cut_weight_unbiased` checks it on simple
# graphs: a pair of weight w at j = min(j_u, j_v) is kept with probability
# 2^-j at weight w * 2^j, so each cut's mean weight over seeds is G's, with
# variance w^2 (2^j - 1) per crossing pair.  Registered before the run:
# three G(12, 0.45) graphs with their first four edges doubled, loops at
# 0, 5 and 9 and weights drawn from {1/4, 1/2, 1, 2} by `default_rng(g)`;
# Y = 0.6, at which pairs sit at levels 0-3; the cuts (every singleton and
# every prefix {0..i} of 2..10 vertices) and the seeds 0..1999; 3 sigma on
# 63 correlated cuts.
WEIGHTED_LEVEL_RULE_GRAPHS = (1, 2, 3)
WEIGHTED_LEVEL_RULE_SEEDS = 2000


def registered_multigraph(g, n=12):
    base = gnp_graph(n, 0.45, seed=g)
    u = np.concatenate([base.edge_u, base.edge_u[:4], [0, 5, 9]])
    v = np.concatenate([base.edge_v, base.edge_v[:4], [0, 5, 9]])
    w = np.random.default_rng(g).choice([0.25, 0.5, 1.0, 2.0], size=u.size)
    return Graph.from_arrays(n, u, v, w)


def test_level_rule_keeps_every_weighted_cut_unbiased():
    n, ups = 12, 0.6
    cuts = [[v] for v in range(n)] + [list(range(i + 1)) for i in range(1, n - 2)]
    sides = np.zeros((len(cuts), n), dtype=bool)
    for c, side in enumerate(cuts):
        sides[c, side] = True
    levels_seen, worst = set(), 0.0
    for g in WEIGHTED_LEVEL_RULE_GRAPHS:
        G = registered_multigraph(g)
        net = NetGraph.of_graph(G)
        pu, pv = np.divmod(net.keys, n)
        assert net.keys.size < G.num_edges  # parallel edges merged
        j = vertex_levels(G.deg, ups, level_cap(n, ups))
        j_p = np.minimum(j[pu], j[pv])
        levels_seen |= set(j_p.tolist())
        W = np.zeros((WEIGHTED_LEVEL_RULE_SEEDS, net.keys.size))
        for s in range(WEIGHTED_LEVEL_RULE_SEEDS):
            H = net.recover_sparsifier(SparsifierParams(delta=0.25, eps=0.5,
                                                        upsilon_override=ups, seed=s))
            W[s, np.searchsorted(net.keys, H.edge_u * n + H.edge_v)] = H.edge_w
        # each kept pair carries its merged weight times 2^j of its own j
        assert ((W == 0) | (W == net.weights * 2.0 ** j_p)).all()
        inc = (sides[:, pu] != sides[:, pv]).astype(np.float64)
        dev = np.abs((W @ inc.T).mean(axis=0) - inc @ net.weights)
        sigma = np.sqrt(inc @ (net.weights**2 * (2.0 ** j_p - 1.0)) / WEIGHTED_LEVEL_RULE_SEEDS)
        assert (dev[sigma == 0] <= 1e-9).all()
        worst = max(worst, float((dev[sigma > 0] / sigma[sigma > 0]).max()))
    assert {0, 1, 2} <= levels_seen
    assert worst <= 3.0, f"a cut's mean weight is {worst:.2f} sigma from G's"
