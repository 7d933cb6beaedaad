import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powercut import Graph, GraphError, intercluster_volume, min_conductance_bruteforce
from powercut.graph import load_graph, load_partition, save_graph, save_partition

from conftest import (
    NON_ASCII_DIGIT_TOKENS,
    oracle_conductance,
    oracle_cut_weight,
    oracle_min_conductance,
    oracle_volume,
)


def test_degrees_count_self_loops_once():
    G = Graph(3, [(0, 1), (1, 1, 2.0), (2, 2)])
    assert G.deg.tolist() == [1.0, 3.0, 1.0]
    assert G.total_volume == 5.0


def test_unweighted_loop_free_volume_is_twice_edges(k4):
    assert k4.total_volume == 2 * k4.num_edges


def test_volume_examples(k4, c8):
    assert k4.volume([0]) == 3
    assert k4.volume([]) == 0
    assert c8.volume([0, 2, 5, 6]) == 8


def test_cut_weight_examples(k4, c8):
    assert k4.cut_weight([0]) == 3
    assert c8.cut_weight([0, 1, 2, 3]) == 2
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert two_triangles.cut_weight([0, 1, 2]) == 0


def test_cut_weight_rejects_trivial_sides(k4):
    with pytest.raises(GraphError):
        k4.cut_weight([])
    with pytest.raises(GraphError):
        k4.cut_weight(range(4))


def test_self_loops_never_cross_cuts():
    G = Graph(2, [(0, 1), (0, 0, 5.0)])
    assert G.cut_weight([0]) == 1.0


def test_conductance_examples(k4, c8):
    assert k4.conductance([0]) == 1.0
    assert c8.conductance([0, 1, 2, 3]) == 0.25
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert two_triangles.conductance([0, 1, 2]) == 0.0


def test_conductance_degenerate_cut_errors():
    G = Graph(3, [(0, 1)])  # vertex 2 isolated
    with pytest.raises(GraphError):
        G.conductance([2])


def test_balance_examples(k4, c8):
    assert c8.balance([0, 1, 2, 3]) == 0.5
    assert k4.balance([0]) == 0.25
    # a half-volume side attains the maximum balance 1/2
    assert c8.balance([0, 1, 2, 3]) == 0.5


def test_cut_and_conductance_symmetric_under_complement(k4, c8):
    rng = np.random.default_rng(0)
    for G in (k4, c8, Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])):
        for _ in range(20):
            size = int(rng.integers(1, G.n))
            S = rng.choice(G.n, size=size, replace=False)
            comp = np.setdiff1d(np.arange(G.n), S)
            assert G.cut_weight(S) == pytest.approx(G.cut_weight(comp))
            assert G.conductance(S) == pytest.approx(G.conductance(comp))


def test_cut_ops_agree_with_oracles():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(3, 9))
        edges = []
        for u in range(n):
            for v in range(u, n):
                if rng.random() < 0.4:
                    w = float(rng.integers(1, 4))
                    edges.append((u, v, w))
        G = Graph(n, edges)
        size = int(rng.integers(1, n))
        S = rng.choice(n, size=size, replace=False)
        assert G.volume(S) == pytest.approx(oracle_volume(G, S))
        assert G.cut_weight(S) == pytest.approx(oracle_cut_weight(G, S))


def test_induce_with_loops_path():
    G = Graph(3, [(0, 1), (1, 2)])  # path a-b-c
    sub = G.induce_with_loops([0, 1])
    assert sorted(sub.edge_list()) == [(0, 1, 1.0), (1, 1, 1.0)]
    assert sub.deg.tolist() == [1.0, 2.0]


def test_induce_with_loops_identity(k4):
    sub = k4.induce_with_loops(range(4))
    assert sorted(sub.edge_list()) == sorted(k4.edge_list())


def test_induce_with_loops_k4_pair(k4):
    sub = k4.induce_with_loops([0, 1])
    assert sub.deg.tolist() == [3.0, 3.0]
    assert sub.conductance([0]) == pytest.approx(1.0 / 3.0)
    loops = [(u, v, w) for u, v, w in sub.edge_list() if u == v]
    assert sorted(loops) == [(0, 0, 2.0), (1, 1, 2.0)]


def test_induce_preserves_every_degree_randomized():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        edges = []
        for u in range(n):
            for v in range(u, n):
                if rng.random() < 0.35:
                    edges.append((u, v, float(rng.integers(1, 5))))
        G = Graph(n, edges)
        size = int(rng.integers(1, n + 1))
        C = np.sort(rng.choice(n, size=size, replace=False))
        sub = G.induce_with_loops(C)
        np.testing.assert_allclose(sub.deg, G.deg[C], rtol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), dyadic=st.booleans())
def test_induce_with_loops_preserves_every_degree(data, dyadic):
    # loops, parallel edges and isolated vertices included; dyadic weights
    # sum exactly, arbitrary floats up to rounding and the dropped dust
    n = data.draw(st.integers(1, 12))
    ends = st.integers(0, n - 1)
    weights = st.integers(1, 64).map(lambda k: k / 8.0) if dyadic else st.floats(1e-3, 1e3)
    G = Graph(n, data.draw(st.lists(st.tuples(ends, ends, weights), max_size=3 * n)))
    C = data.draw(st.lists(ends, min_size=1, unique=True))
    sub, want = G.induce_with_loops(C), G.deg[np.sort(C)]
    if dyadic:
        assert np.array_equal(sub.deg, want)
    else:
        np.testing.assert_allclose(sub.deg, want, rtol=1e-9, atol=1e-9)


def test_min_conductance_bruteforce_examples(k4):
    phi, witness = min_conductance_bruteforce(k4)
    assert phi == pytest.approx(2.0 / 3.0)
    assert witness.size == 2
    k2 = Graph(2, [(0, 1)])
    assert min_conductance_bruteforce(k2)[0] == 1.0
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    phi, witness = min_conductance_bruteforce(two_triangles)
    assert phi == 0.0
    assert sorted(witness.tolist()) in ([0, 1, 2], [3, 4, 5])


def test_min_conductance_bruteforce_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        G = Graph(n, edges)
        got, _ = min_conductance_bruteforce(G)
        want, _ = oracle_min_conductance(G)
        assert got == pytest.approx(want)


def test_min_conductance_size_guard():
    with pytest.raises(GraphError):
        min_conductance_bruteforce(Graph(23))


def test_sparse_cut_composition_property():
    # S1 sparse in G, S2 sparse in G minus S1, union at most half the volume
    # implies the union is sparse in G
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 50:
        n = int(rng.integers(6, 11))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        if not edges:
            continue
        G = Graph(n, edges)
        verts = np.arange(n)
        s1 = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
        rest = np.setdiff1d(verts, s1)
        if rest.size < 2:
            continue
        s2 = rng.choice(rest, size=int(rng.integers(1, rest.size)), replace=False)
        union = np.union1d(s1, s2)
        if union.size >= n:
            continue
        vol_union = G.volume(union)
        if vol_union == 0 or vol_union > G.total_volume / 2:
            continue
        vol1, vol2 = G.volume(s1), G.volume(s2)
        if vol1 == 0 or vol2 == 0:
            continue
        w1 = G.cut_weight(s1)
        in_rest = np.zeros(n, dtype=bool)
        in_rest[rest] = True
        in_s2 = np.zeros(n, dtype=bool)
        in_s2[s2] = True
        w2 = sum(
            w
            for u, v, w in G.edge_list()
            if in_rest[u] and in_rest[v] and (in_s2[u] != in_s2[v])
        )
        phi = max(w1 / vol1, w2 / vol2)
        assert G.cut_weight(union) <= phi * vol_union * (1 + 1e-9)
        checked += 1


def test_partition_volume_sums_to_total(k4, c8):
    rng = np.random.default_rng(2)
    for G in (k4, c8):
        labels = rng.integers(0, 3, size=G.n)
        clusters = [np.flatnonzero(labels == i) for i in range(3) if (labels == i).any()]
        assert sum(G.volume(C) for C in clusters) == pytest.approx(G.total_volume)


def test_intercluster_volume_examples(k4):
    assert intercluster_volume(k4, [np.arange(4)]) == 0.0
    singletons = [np.array([v]) for v in range(4)]
    assert intercluster_volume(k4, singletons) == k4.total_volume
    from powercut import barbell_graph

    bb = barbell_graph(2, 4, 1)
    assert intercluster_volume(bb, [np.arange(4), np.arange(4, 8)]) == 2.0


def test_intercluster_volume_rejects_bad_partitions(k4):
    with pytest.raises(GraphError):
        intercluster_volume(k4, [np.array([0, 1])])
    with pytest.raises(GraphError):
        intercluster_volume(k4, [np.array([0, 1]), np.array([1, 2, 3])])


def test_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1, 0.0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1, -1.0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1), (0, 1, np.nan)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1), (0, 1, np.inf)])


@pytest.mark.parametrize(
    "u, v, w", [(2, 0, 1.0), (-1, 1, 1.0), (0, 1, 0.0), (0, 1, -1.0), (0, 1, np.nan), (0, 1, np.inf)]
)
def test_from_arrays_rejects_bad_edges(u, v, w):
    with pytest.raises(GraphError):
        Graph.from_arrays(2, [0, u], [1, v], [1.0, w])


def test_from_arrays_rejects_ragged_arrays():
    with pytest.raises(GraphError):
        Graph.from_arrays(3, [0, 1], [1], [1.0, 1.0])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1, 1.0, 2.0)])


def test_from_arrays_matches_tuple_constructor():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(0, 25))
        u, v = rng.integers(0, n, m), rng.integers(0, n, m)
        w = rng.random(m) * 5 + 0.01
        A = Graph.from_arrays(n, u, v, w)
        B = Graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        assert A.edge_list() == B.edge_list()
        assert A.deg.tobytes() == B.deg.tobytes()
        assert np.all(A.edge_u <= A.edge_v)


def reference_induce_with_loops(G, C):
    """Tuple-by-tuple induced subgraph: kept edges in storage order, then one
    loop per vertex carrying its lost degree."""
    C = sorted(int(c) for c in C)
    local = {c: i for i, c in enumerate(C)}
    edges = [(local[u], local[v], w) for u, v, w in G.edge_list() if u in local and v in local]
    inner = np.zeros(len(C))
    for a, b, w in edges:
        inner[a] += w
    for a, b, w in edges:
        if a != b:
            inner[b] += w
    for i, c in enumerate(C):
        missing = G.deg[c] - inner[i]
        if missing > 1e-9 * max(1.0, G.deg[c]):
            edges.append((i, i, float(missing)))
    return Graph(len(C), edges)


def test_induce_with_loops_matches_tuple_reference():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(0, 40))
        G = Graph.from_arrays(n, rng.integers(0, n, m), rng.integers(0, n, m), rng.random(m) + 0.1)
        C = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        got, want = G.induce_with_loops(C), reference_induce_with_loops(G, C)
        assert got.edge_list() == want.edge_list()
        assert got.deg.tobytes() == want.deg.tobytes()


def test_graph_file_roundtrip(tmp_path):
    G = Graph(5, [(0, 1), (1, 2, 2.5), (3, 3, 0.75)])
    path = tmp_path / "g.txt"
    save_graph(G, path)
    G2 = load_graph(path)
    assert G2.n == G.n
    assert G2.edge_list() == G.edge_list()


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("3 1\n0 1\n1 2\n", 3),  # more edge lines than m
        ("3 2\n0 1\n", 3),  # file ends early
        ("3 2\n", 2),  # no edge lines at all
        ("x 1\n0 1\n", 1),  # non-integer header
        ("3\n", 1),  # header without m
        ("3 1\n0 1 inf\n", 2),
        ("3 1\n0 1 nan\n", 2),
        ("3 1\n0 1 0\n", 2),
        ("3 1\n0 1 -2\n", 2),
        ("3 1\n0 3\n", 2),  # vertex out of range
        ("3 1\n-1 2\n", 2),  # negative vertex
        ("3 1\n0\n", 2),  # truncated edge line
        ("3 1\n0 1 1 1\n", 2),  # extra field
        ("3 1\n0 a\n", 2),  # not an integer
    ] + [(body.format(token), lineno) for token in NON_ASCII_DIGIT_TOKENS
         for body, lineno in [("{} 1\n0 1\n", 1), ("12 {}\n0 1\n", 1),
                              ("12 1\n{} 1\n", 2), ("12 1\n0 {}\n", 2)]],
)
def test_load_graph_rejects_bad_lines(tmp_path, body, lineno):
    path = tmp_path / "g.txt"
    path.write_text(body)
    with pytest.raises(GraphError, match=f":{lineno}:"):
        load_graph(path)


def test_load_graph_skips_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n\n1 2 2.5\n\n")
    assert load_graph(path).edge_list() == [(0, 1, 1.0), (1, 2, 2.5)]


def test_partition_file_roundtrip(tmp_path):
    clusters = [np.array([0, 2]), np.array([1]), np.array([3, 4])]
    path = tmp_path / "p.txt"
    save_partition(clusters, 5, path)
    loaded = load_partition(path, 5)
    assert [c.tolist() for c in loaded] == [[0, 2], [1], [3, 4]]


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("0 0\n1 0\n9 1\n", 3),  # vertex out of range
        ("0 0\n-1 2\n", 2),  # negative vertex
        ("0 0\n3\n", 2),  # truncated
        ("0 0 0\n", 1),  # extra field
        ("0 -2\n", 1),  # negative cluster id
        ("0 0\n0 1\n", 2),  # vertex assigned twice
        ("0 a\n", 1),  # not an integer
    ] + [(body.format(token), lineno) for token in NON_ASCII_DIGIT_TOKENS
         for body, lineno in [("0 0\n{} 0\n", 2), ("0 {}\n", 1)]],
)
def test_load_partition_rejects_bad_lines(tmp_path, body, lineno):
    path = tmp_path / "p.txt"
    path.write_text(body)
    with pytest.raises(GraphError, match=f":{lineno}:"):
        load_partition(path, 4)


def test_conductance_oracle_agreement_on_weighted_loopy_graphs():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        edges = []
        for u in range(n):
            for v in range(u, n):
                if rng.random() < 0.6:
                    edges.append((u, v, float(rng.integers(1, 4))))
        G = Graph(n, edges)
        for _ in range(5):
            size = int(rng.integers(1, n))
            S = rng.choice(n, size=size, replace=False)
            vol_s = G.volume(S)
            vol_rest = G.total_volume - vol_s
            if min(vol_s, vol_rest) <= 0:
                continue
            assert G.conductance(S) == pytest.approx(oracle_conductance(G, S))
