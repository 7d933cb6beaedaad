import math

import numpy as np
import pytest

from powercut import (
    Graph,
    NetGraph,
    SketchParams,
    SparsifierParams,
    StreamState,
    gen_stream,
    gnp_graph,
    sample_offline,
)
from powercut.prf import prf
from powercut.stream import (
    _LEVEL_TAG,
    StreamError,
    load_stream,
    pair_levels,
    pick_level,
    save_stream,
    vertex_levels,
)

from conftest import NON_ASCII_DIGIT_TOKENS, complete_graph


def small_params(**kw):
    base = dict(delta=0.25, eps=0.5, upsilon_override=2.0, seed=3)
    base.update(kw)
    return SparsifierParams(**base)


def test_stream_update_rejects_loops():
    st = StreamState(8, small_params())
    with pytest.raises(StreamError):
        st.process_many([(2, 2, 1)])
    with pytest.raises(StreamError):
        st.process((2, 2, 1))
    assert not st.deg.any()


def test_stream_takes_integers_only():
    a, b = StreamState(8, small_params()), StreamState(8, small_params())
    with pytest.raises(StreamError):
        a.process((0, 1.5, 1))
    a.process((np.int64(1), np.int32(5), 1))
    b.process((1, 5, 1))
    assert a.serialize() == b.serialize()
    before = a.serialize()
    for rows in ([(0, 1.5, 1)], [(0.0, 1, 1)], [(0, 1, 0.5)], np.array([[2.0, 3.0, 1.0]])):
        with pytest.raises(StreamError):
            a.process_many(rows)
        assert a.serialize() == before
    a.process_many([])
    a.process_many(np.zeros((0, 3), dtype=np.int64))
    assert a.serialize() == before


@pytest.mark.parametrize("rows", [np.array([[0, 1]]), np.array([[0, 1, 1, 1]]),
                                  np.array([0, 1, 1]), np.zeros((1, 1, 3), dtype=np.int64)])
def test_process_many_rejects_rows_not_three_wide(rows):
    st = StreamState(8, small_params())
    st.process((2, 3, 1))
    before = st.serialize()
    with pytest.raises(StreamError):
        st.process_many(rows)
    assert st.serialize() == before


@pytest.mark.parametrize("ups", [2.0, 0.12])
def test_process_many_leaves_the_callers_array_unchanged(ups):
    G = gnp_graph(12, 0.5, seed=2)
    rows = gen_stream(G, churn=0.5, seed=9)
    kept = rows.copy()
    st = StreamState(12, small_params(upsilon_override=ups))
    st.process_many(rows)
    st.process_many(rows[::-1])  # a strided view reads as well
    assert np.array_equal(rows, kept)


def test_edge_level_symmetric_and_deterministic():
    level_seed = prf(small_params().seed, _LEVEL_TAG)
    u, v = np.triu_indices(16, 1)
    levels = pair_levels(level_seed, u, v)
    assert np.array_equal(levels, pair_levels(level_seed, v, u))
    assert np.array_equal(levels, pair_levels(prf(small_params().seed, _LEVEL_TAG), u, v))


def test_edge_level_fraction_matches_geometric_law():
    # over many random pairs the fraction at level >= i stays within 3 sigma
    # of 2^-i; pairs drawn from a large universe so levels are independent-ish
    rng = np.random.default_rng(5)
    trials = 10**6
    us = rng.integers(0, 4096, size=trials)
    vs = rng.integers(0, 4096, size=trials)
    pair = us != vs
    levels = pair_levels(prf(small_params(seed=77).seed, _LEVEL_TAG), us[pair], vs[pair])
    n_valid = levels.size
    for i in range(1, 11):
        p = 2.0 ** (-i)
        got = float((levels >= i).sum())
        sigma = math.sqrt(n_valid * p * (1 - p))
        assert abs(got - n_valid * p) <= 3.0 * sigma, f"level {i}"


def test_insert_then_delete_restores_state():
    st = StreamState(8, small_params())
    before = st.serialize()
    st.process((1, 5, 1))
    assert st.serialize() != before
    st.process((1, 5, -1))
    assert st.serialize() == before


def test_stream_permutation_invariance():
    G = gnp_graph(12, 0.5, seed=2)
    a = StreamState(12, small_params())
    a.process_many(gen_stream(G, churn=0.5, seed=9))
    b = StreamState(12, small_params())
    b.process_many(gen_stream(G, churn=0.0, seed=4))
    # churned and clean streams have the same net graph, hence equal state
    assert a.serialize() == b.serialize()


def test_star_center_degree_counter():
    st = StreamState(8, small_params())
    for leaf in range(1, 6):
        st.process((0, leaf, 1))
    assert st.deg[0] == 5
    assert st.deg[1:6].tolist() == [1] * 5


def test_pick_level_formula():
    assert pick_level(150.0, 100.0, max_level=10) == 0
    assert pick_level(800.0, 100.0, max_level=10) == 2
    assert pick_level(0.0, 100.0, max_level=10) == 0
    assert pick_level(10.0 ** 9, 1.0, max_level=5) == 5  # cap at stored levels


@pytest.mark.parametrize("n, ups", [(1, 2.0), (2, 0.1), (9, 4.0), (64, 4.0), (200, 0.12),
                                    (257, 1.0), (400, 4.0), (1000, 31.2)])
def test_state_levels_stop_at_the_level_cap(n, ups):
    # L* = floor(log2((n - 1) / 2Y)), 0 when n - 1 <= 2Y, and never above
    # ceil(log2 n) (at least 1)
    cap = math.floor(math.log2((n - 1) / (2 * ups))) if n - 1 > 2 * ups else 0
    top = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    state = StreamState(n, small_params(upsilon_override=ups))
    assert state.levels == min(top, cap)


@pytest.mark.parametrize("n, ups, seed", [(16, 0.5, 1), (40, 2.0, 2), (64, 4.0, 3)])
def test_sketch_state_over_complete_graph_recovers_offline_draw(n, ups, seed):
    # every vertex of K_n has degree n - 1, so every j_v is the cap L* itself:
    # the top level the state keeps must be there and be the one read
    G = complete_graph(n)
    sp = small_params(upsilon_override=ups, seed=seed)
    state = StreamState(n, sp)
    assert not state.dense and state.levels >= 1
    state.process_many(gen_stream(G, churn=0.5, seed=seed))
    j = vertex_levels(state.deg, state.upsilon, state.levels)
    assert (j == state.levels).all()
    assert state.levels == math.floor(math.log2((n - 1) / (2 * ups)))
    H = state.recover_sparsifier()
    assert H is not None and H.num_edges < G.num_edges
    assert H.edge_list() == sample_offline(G, sp).edge_list()


def test_low_degree_graph_recovers_exactly_weight_one():
    # all degrees at most 2Y: every vertex reads level 0, weights all 1
    G = gnp_graph(20, 0.2, seed=6)
    sp = small_params(upsilon_override=float(G.deg.max()))
    st = StreamState(20, sp)
    st.process_many(gen_stream(G, churn=0.3, seed=8))
    H = st.recover_sparsifier()
    assert H is not None
    assert H.edge_list() == sorted(G.edge_list())
    assert set(H.edge_w.tolist()) <= {1.0}


def test_recover_equals_offline_oracle():
    for seed in range(8):
        G = gnp_graph(48, 0.45, seed=100 + seed)
        sp = small_params(upsilon_override=4.0, seed=200 + seed)
        st = StreamState(48, sp)
        st.process_many(gen_stream(G, churn=0.5, seed=300 + seed))
        assert np.array_equal(st.deg, G.deg.astype(np.int64))
        H = st.recover_sparsifier()
        if H is None:
            continue
        assert H.edge_list() == sample_offline(G, sp).edge_list()


def test_subsampling_actually_happens():
    G = gnp_graph(48, 0.6, seed=42)
    sp = small_params(upsilon_override=3.0, seed=43)
    H = sample_offline(G, sp)
    assert H.num_edges < G.num_edges
    assert set(H.edge_w.tolist()) - {1.0}  # some reweighted edges


def test_recovery_fail_is_a_value():
    # frozen configuration where a level sketch overflows its k budget
    G = complete_graph(6)
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=0.12, seed=1)
    st = StreamState(6, sp)
    for u, v, _ in G.edge_list():
        st.process((u, v, 1))
    assert st.recover_sparsifier() is None


def test_fail_rate_stays_below_one_percent_at_reduced_upsilon():
    # 1000 seeded runs in the subsampling regime; FAIL needs a level sketch
    # to overflow its 8Y budget, which concentration makes rare
    fails = 0
    runs = 1000
    G = gnp_graph(64, 0.55, seed=1234)
    updates = gen_stream(G, churn=0.0, seed=5678)
    for t in range(runs):
        sp = small_params(upsilon_override=4.0, seed=900000 + t)
        st = StreamState(64, sp)
        st.process_many(updates)
        if st.recover_sparsifier() is None:
            fails += 1
    assert fails <= 0.01 * runs


def test_empty_graph_offline_sample():
    G = Graph(4)
    H = sample_offline(G, small_params())
    assert H.num_edges == 0 and H.n == 4


def test_sample_offline_rejects_weighted_or_loopy():
    with pytest.raises(StreamError):
        sample_offline(Graph(3, [(0, 0)]), small_params())
    with pytest.raises(StreamError):
        sample_offline(Graph(3, [(0, 1, 2.0)]), small_params())


def test_space_accounting_matches_budget():
    # a sketch state holds 3 int64 per bucket of each touched slot, and the
    # degrees
    st = StreamState(32, small_params())
    assert not st.dense
    assert st.memory_bytes() == st.deg.nbytes
    st.serialize()  # touches every slot
    slot = 24 * 2 * st.k * SketchParams(32, st.k, st.sketch_p, 0).rows
    assert st.memory_bytes() == (st.levels + 1) * 32 * slot + 8 * 32
    # what the `PoolTooLarge` check adds up, 8n^2 + 8n, is what a net graph
    # and a dense state hold from the start
    net_bytes = 8 * 32**2 + 8 * 32
    assert NetGraph(32).memory_bytes() == net_bytes
    dense = StreamState(32, small_params(upsilon_override=4.0))
    assert dense.dense
    assert dense.memory_bytes() == net_bytes
    dense.process_many(gen_stream(gnp_graph(32, 0.3, seed=1), churn=0.5, seed=2))
    assert dense.memory_bytes() == net_bytes


def test_stream_file_roundtrip(tmp_path):
    G = gnp_graph(10, 0.4, seed=3)
    upds = gen_stream(G, churn=0.5, seed=4)
    path = tmp_path / "s.txt"
    save_stream(10, upds, path)
    n, loaded = load_stream(path)
    assert n == 10
    assert loaded.dtype == np.int64 and loaded.shape == (len(upds), 3)
    assert np.array_equal(loaded, upds)
    assert path.read_text().splitlines()[:2] == ["10", "{} {} {}".format(
        "+" if upds[0, 2] == 1 else "-", *upds[0, :2])]


def test_empty_stream_file_roundtrip(tmp_path):
    path = tmp_path / "s.txt"
    save_stream(3, np.zeros((0, 3), dtype=np.int64), path)
    n, loaded = load_stream(path)
    assert n == 3 and loaded.shape == (0, 3) and loaded.dtype == np.int64


@pytest.mark.parametrize("delta", [2, 0, -2])
def test_save_stream_rejects_deltas_other_than_one(tmp_path, delta):
    with pytest.raises(StreamError):
        save_stream(4, [(0, 1, 1), (1, 2, delta)], tmp_path / "s.txt")
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("+ 0\n", 2),  # truncated
        ("+ 0 1\n- 0 1 2\n", 3),  # extra field
        ("+- 0 1\n", 2),  # op other than exactly + or -
        ("* 0 1\n", 2),
        ("+ 0 4\n", 2),  # id out of range
        ("+ -1 2\n", 2),  # negative id
        ("+ 0 x\n", 2),  # not an integer
        ("+ 0 1\n\n+ 2 2\n", 4),  # loop
        ("+ 0 1\n- 1 2\n", 3),  # delete of an absent edge
        ("+ 0 1\n- 1 0\n+ 0 1\n+ 1 0\n", 5),  # insert of a present edge
    ] + [(body.format(token), 2) for token in NON_ASCII_DIGIT_TOKENS
         for body in ["+ {} 0\n", "+ 0 {}\n"]],
)
def test_load_stream_rejects_bad_lines(tmp_path, body, lineno):
    path = tmp_path / "s.txt"
    path.write_text("4\n" + body)
    with pytest.raises(StreamError, match=f":{lineno}:"):
        load_stream(path)


@pytest.mark.parametrize("header", ["", "0\n", "-3\n", "4 5\n", "four\n"]
                         + [token + "\n" for token in NON_ASCII_DIGIT_TOKENS])
def test_load_stream_rejects_bad_header(tmp_path, header):
    path = tmp_path / "s.txt"
    path.write_text(header + "+ 0 1\n")
    with pytest.raises(StreamError, match=":1:"):
        load_stream(path)
