import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powercut import (
    Graph,
    GraphError,
    SparsifierParams,
    check_cut_sparsifier,
    check_power_partition,
    edge_probability,
    random_regular_graph,
    sample,
    upsilon,
)
from powercut.sparsify import edge_probabilities

from conftest import assert_same_graph


def test_upsilon_value_frozen():
    # 6*(1+2)/(0.5*0.5) * 2*log2(16) * ln(16), computed stepwise
    assert upsilon(16, 0.5, 0.5, 1.0) == pytest.approx(1597.011104010114, rel=1e-12)
    assert upsilon(2, 0.5, 0.5, 1.0) == pytest.approx(99.81319400063212, rel=1e-12)


def test_upsilon_linear_in_inverse_eps():
    base = upsilon(64, 0.4, 0.3, 2.0)
    assert upsilon(64, 0.2, 0.3, 2.0) == pytest.approx(2.0 * base, rel=1e-12)


def test_upsilon_requires_two_vertices():
    with pytest.raises(GraphError):
        upsilon(1, 0.5, 0.5, 1.0)


def test_edge_probability_cases():
    assert edge_probability(10, 10, 5.0) == 1.0  # Y >= d/2 clamps to 1
    assert edge_probability(40, 40, 10.0) == pytest.approx(0.5)  # both at 4Y
    assert edge_probability(20, 10**9, 10.0) >= 0.5  # one-sided term
    with pytest.raises(GraphError):
        edge_probability(0, 5, 1.0)


def test_sample_identity_when_all_probabilities_clamp(k4):
    params = SparsifierParams(delta=0.5, eps=0.5, seed=0)  # formula Y is huge
    H = sample(k4, params)
    assert H.edge_list() == k4.edge_list()
    assert set(H.edge_w.tolist()) == {1.0}


def test_sample_empty_graph():
    H = sample(Graph(5), SparsifierParams(delta=0.5, eps=0.5, seed=1))
    assert H.n == 5 and H.num_edges == 0


@st.composite
def weighted_multigraphs(draw, max_n=12):
    """Loops, parallel edges and isolated vertices included."""
    n = draw(st.integers(1, max_n))
    ends = st.integers(0, n - 1)
    weights = st.floats(0.25, 4.0)
    return Graph(n, draw(st.lists(st.tuples(ends, ends, weights), max_size=3 * n)))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(G=weighted_multigraphs(), seed=st.integers(0, 10**6),
       ups=st.sampled_from([0.3, 1.0, 4.0]))
def test_sample_equals_tuple_built_graph(G, seed, ups):
    params = SparsifierParams(delta=0.5, eps=0.5, upsilon_override=ups, seed=seed)
    want = Graph(G.n)
    if G.num_edges:
        p = edge_probabilities(G, ups)
        keep = np.random.default_rng(seed).random(G.num_edges) < p
        want = Graph(G.n, [
            (int(u), int(v), float(w / pe))
            for u, v, w, pe in zip(G.edge_u[keep], G.edge_v[keep], G.edge_w[keep], p[keep])
        ])
    assert_same_graph(sample(G, params), want)


def test_sample_self_loops_participate():
    G = Graph(2, [(0, 1), (0, 0), (1, 1)])
    params = SparsifierParams(delta=0.5, eps=0.5, seed=2)
    H = sample(G, params)
    assert sorted(H.edge_list()) == sorted(G.edge_list())


def test_sample_unbiased_per_cut():
    # small Monte-Carlo version of the unbiasedness criterion: mean cut
    # weight over samples within 3 sigma of the true weight (exact variance)
    G = random_regular_graph(8, 4, seed=5)
    params = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=0.9, seed=0)
    p = edge_probabilities(G, params.upsilon_for(8))
    n_samples = 4000
    rng = np.random.default_rng(123)
    kept = rng.random((n_samples, G.num_edges)) < p[None, :]
    weights = kept * (G.edge_w / p)[None, :]
    in_s = np.zeros(8, dtype=bool)
    in_s[[0, 2, 5]] = True
    cross = in_s[G.edge_u] != in_s[G.edge_v]
    true_w = float(G.edge_w[cross].sum())
    mean_w = float(weights[:, cross].sum(axis=1).mean())
    var = float((G.edge_w[cross] ** 2 * (1 - p[cross]) / p[cross]).sum())
    sigma = math.sqrt(var / n_samples)
    assert abs(mean_w - true_w) <= 3.0 * sigma + 1e-9


def test_sampled_edge_count_concentrates():
    # |E(H)| <= 2nY holds essentially always at desk scale
    G = random_regular_graph(16, 8, seed=9)
    params = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=1.2, seed=0)
    ups = params.upsilon_for(16)
    bad = 0
    trials = 400
    for t in range(trials):
        H = sample(G, SparsifierParams(delta=0.25, eps=0.5, upsilon_override=1.2, seed=t))
        if H.num_edges > 2 * 16 * ups:
            bad += 1
    assert bad / trials <= 1.0 / 16.0  # far below the n^-C budget in practice


def test_check_cut_sparsifier_identity(k4):
    rep = check_cut_sparsifier(k4, k4, 0.0, 0.0)
    assert rep.ok and rep.worst_violation <= 0 + 1e-12
    rep2 = check_cut_sparsifier(k4, k4, 0.3, 0.1)
    assert rep2.ok


def test_check_cut_sparsifier_detects_empty(k4):
    empty = Graph(4)
    rep = check_cut_sparsifier(k4, empty, 0.1, 0.1)
    assert not rep.ok
    assert rep.worst_cut is not None


def test_check_cut_sparsifier_multiplicative_slack(k4):
    scaled = Graph(4, [(u, v, w * 1.05) for u, v, w in k4.edge_list()])
    rep = check_cut_sparsifier(k4, scaled, 0.1, 0.0)
    assert rep.ok


def test_check_cut_sparsifier_guards(k4):
    with pytest.raises(GraphError):
        check_cut_sparsifier(k4, Graph(5), 0.1, 0.1)
    with pytest.raises(GraphError):
        check_cut_sparsifier(Graph(23), Graph(23), 0.1, 0.1)


def test_check_power_partition_identity_and_singletons(k4):
    ok, _ = check_power_partition(k4, k4, [np.arange(4)], 0.0, 0.0)
    assert ok
    ok2, reports = check_power_partition(
        k4, Graph(4), [np.array([v]) for v in range(4)], 0.0, 0.0
    )
    assert ok2  # singletons have no nontrivial cuts
    assert all(r.cuts_checked == 0 for r in reports)


def test_check_power_partition_formula_upsilon_always_true():
    rng = np.random.default_rng(21)
    for seed in range(10):
        G = random_regular_graph(12, 6, seed=seed)
        params = SparsifierParams(delta=0.3, eps=0.4, seed=seed)  # formula Y
        H = sample(G, params)
        labels = rng.integers(0, 3, size=12)
        clusters = [np.flatnonzero(labels == c) for c in range(3) if (labels == c).any()]
        ok, _ = check_power_partition(G, H, clusters, 0.3, 0.4)
        assert ok


def test_dropped_edge_partition_violates_small_eps():
    # the additive term only saves eps*Vol: pairing the endpoints of a
    # dropped edge exposes the multiplicative loss
    G = random_regular_graph(12, 6, seed=3)
    found = False
    for seed in range(40):
        params = SparsifierParams(delta=0.05, eps=0.01, upsilon_override=1.0, seed=seed)
        H = sample(G, params)
        kept = set((u, v) for u, v, _ in H.edge_list())
        dropped = [(u, v) for u, v, _ in G.edge_list() if (u, v) not in kept]
        if not dropped:
            continue
        u, v = dropped[0]
        rest = np.setdiff1d(np.arange(12), [u, v])
        clusters = [np.array([u, v]), rest]
        ok, _ = check_power_partition(G, H, clusters, 0.05, 0.01)
        assert not ok
        found = True
        break
    assert found, "no sample dropped an edge; lower the override"
