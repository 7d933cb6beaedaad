import numpy as np
import pytest

from powercut import (
    Graph,
    GraphError,
    SparsifierParams,
    SweepNumericFailure,
    barbell_graph,
    check_cut_sparsifier,
    exhaustive_balanced_cut,
    gnp_graph,
    min_conductance_bruteforce,
    sample,
    sweep_balanced_cut,
)

from conftest import complete_graph, cycle_graph, oracle_balanced_cut


def random_cluster_graph(rng, max_n=10):
    """Random small graph, sometimes induced-with-loops from a larger one."""
    n = int(rng.integers(3, max_n + 1))
    p = float(rng.uniform(0.25, 0.8))
    if rng.random() < 0.3:
        big = gnp_graph(n + int(rng.integers(2, 5)), p, seed=int(rng.integers(2**31)))
        C = np.sort(rng.choice(big.n, size=n, replace=False))
        return big.induce_with_loops(C)
    return gnp_graph(n, p, seed=int(rng.integers(2**31)))


def test_exhaustive_c4_example():
    C4 = cycle_graph(4)
    out = exhaustive_balanced_cut(C4, C4.deg, phi=0.6, delta=0.0)
    assert not out.expander
    assert out.cut.tolist() == [0, 1]
    assert out.sparsity_estimate == pytest.approx(0.5)
    assert out.balance == pytest.approx(0.5)


def test_exhaustive_k4_expander_verdict(k4):
    out = exhaustive_balanced_cut(k4, k4.deg, phi=0.5, delta=0.0)
    assert out.expander


def test_exhaustive_phi_zero():
    k4 = complete_graph(4)
    assert exhaustive_balanced_cut(k4, k4.deg, 0.0, 0.0).expander
    two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    out = exhaustive_balanced_cut(two, two.deg, 0.0, 0.0)
    assert not out.expander
    assert out.sparsity_estimate == 0.0


def test_exhaustive_size_guard_and_delta_guard(k4):
    with pytest.raises(GraphError):
        exhaustive_balanced_cut(Graph(23), np.ones(23), 0.5, 0.0)
    with pytest.raises(GraphError):
        exhaustive_balanced_cut(k4, k4.deg, 0.5, 0.2)


def test_exhaustive_agrees_with_oracle_over_random_graphs():
    rng = np.random.default_rng(99)
    for _ in range(60):
        H = random_cluster_graph(rng)
        phi = float(rng.uniform(0.05, 0.95))
        out = exhaustive_balanced_cut(H, H.deg, phi, 0.0)
        is_exp, best = oracle_balanced_cut(H, H.deg, phi)
        assert out.expander == is_exp
        if not is_exp:
            assert tuple(out.cut.tolist()) == best


def test_expander_verdict_sound_on_verified_sparsifier():
    # whenever the sparsifier passes its own check, an Expander verdict
    # means the underlying cluster really is a phi-expander
    rng = np.random.default_rng(7)
    delta = 0.05
    verdicts = 0
    for seed in range(40):
        G = gnp_graph(8, 0.6, seed=seed)
        if G.total_volume == 0:
            continue
        phi = float(rng.uniform(0.1, 0.6))
        params = SparsifierParams(
            delta=delta, eps=0.5, upsilon_override=3.0, seed=1000 + seed
        )
        H = sample(G, params)
        if not check_cut_sparsifier(G, H, delta, delta * phi).ok:
            continue
        out = exhaustive_balanced_cut(H, G.deg, phi, delta)
        if out.expander:
            verdicts += 1
            min_phi, _ = min_conductance_bruteforce(G)
            assert min_phi >= phi * (1 - 1e-9)
    assert verdicts > 0


def test_returned_cut_sparsity_bound_on_verified_sparsifier():
    delta = 0.05
    rng = np.random.default_rng(17)
    checked = 0
    for seed in range(60):
        G = gnp_graph(9, 0.5, seed=seed)
        if G.total_volume == 0:
            continue
        phi = float(rng.uniform(0.2, 0.8))
        params = SparsifierParams(
            delta=delta, eps=0.5, upsilon_override=3.0, seed=2000 + seed
        )
        H = sample(G, params)
        if not check_cut_sparsifier(G, H, delta, delta * phi).ok:
            continue
        out = exhaustive_balanced_cut(H, G.deg, phi, delta)
        if out.expander:
            continue
        assert G.conductance(out.cut) <= (1 + 5 * delta) * phi * (1 + 1e-9)
        checked += 1
    assert checked > 0


def test_balance_dominance_at_delta_zero():
    # with H = G and delta = 0 the returned cut dominates the volume of
    # every phi-sparse cut (b = 1)
    rng = np.random.default_rng(31)
    import itertools

    for _ in range(30):
        H = random_cluster_graph(rng, max_n=8)
        phi = float(rng.uniform(0.1, 0.9))
        out = exhaustive_balanced_cut(H, H.deg, phi, 0.0)
        vol_c = H.total_volume
        for r in range(1, H.n):
            for S in itertools.combinations(range(H.n), r):
                vol_s = H.volume(S)
                if vol_s <= 0 or vol_s > vol_c / 2:
                    continue
                if H.cut_weight(S) / vol_s <= phi:
                    assert not out.expander
                    assert vol_s <= H.volume(out.cut) * (1 + 1e-12)


def test_sweep_disconnected_returns_free_cut():
    two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    out = sweep_balanced_cut(two, two.deg, 0.5)
    assert not out.expander
    assert out.sparsity_estimate == 0.0
    assert sorted(out.cut.tolist()) in ([0, 1, 2], [3, 4, 5])


def test_sweep_barbell_finds_bridge():
    B = barbell_graph(2, 8, 1)
    out = sweep_balanced_cut(B, B.deg, 0.2)
    assert not out.expander
    assert sorted(out.cut.tolist()) in ([0, 1, 2, 3, 4, 5, 6, 7], list(range(8, 16)))
    assert out.sparsity_estimate == pytest.approx(1.0 / 57.0)
    assert out.balance == pytest.approx(0.5)


def test_sweep_k16_expander_cross_checked():
    K16 = complete_graph(16)
    out = sweep_balanced_cut(K16, K16.deg, 0.3)
    assert out.expander
    assert exhaustive_balanced_cut(K16, K16.deg, 0.3, 0.0).expander


def test_sweep_cut_meets_contract_on_random_graphs():
    rng = np.random.default_rng(5)
    for seed in range(25):
        H = gnp_graph(14, 0.3, seed=seed)
        if H.total_volume == 0:
            continue
        phi = float(rng.uniform(0.1, 0.6))
        out = sweep_balanced_cut(H, H.deg, phi)
        if out.expander:
            continue
        vol_c = H.total_volume
        vol_s = H.volume(out.cut)
        assert 0 < vol_s <= vol_c / 2 * (1 + 1e-9)
        # composition keeps the accumulated cut below the sweep threshold
        assert out.sparsity_estimate <= phi * (1 + 1e-6)


def test_sweep_numeric_failure_when_eigsh_does_not_converge(monkeypatch):
    # one Lanczos restart of ARPACK's 20 basis vectors cannot resolve the
    # crowded top of a 200-vertex path's spectrum
    import scipy.sparse.linalg
    real = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda *a, **kw: real(*a, **kw, maxiter=1))
    P = Graph(200, [(v, v + 1) for v in range(199)])
    with pytest.raises(SweepNumericFailure, match="eigsh did not converge"):
        sweep_balanced_cut(P, P.deg, 0.2)


def test_sweep_on_singleton_and_zero_volume():
    assert sweep_balanced_cut(Graph(1), np.zeros(1), 0.3).expander
    assert sweep_balanced_cut(Graph(3), np.zeros(3), 0.3).expander


def _triangle_and_two_k6():
    """A triangle {0, 1, 2} apart from two K6 blocks joined by one bridge."""
    blocks = [list(range(3, 9)), list(range(9, 15))]
    edges = [(0, 1), (1, 2), (0, 2), (3, 9)]
    edges += [(u, v) for b in blocks for i, u in enumerate(b) for v in b[i + 1:]]
    return Graph(15, edges), blocks


def test_sweep_returns_the_balanced_complement_on_overshoot():
    # the sweep first takes the triangle (volume 6) as a free cut, then
    # finds a block (volume 31); 6 + 31 overshoots half of 68, so it returns
    # the other block, whose cut edges are those of triangle + block
    G, blocks = _triangle_and_two_k6()
    out = sweep_balanced_cut(G, G.deg, 0.2)
    assert not out.expander
    assert out.cut.tolist() in blocks
    assert out.sparsity_estimate == pytest.approx(1.0 / 31.0)
    assert out.balance == pytest.approx(31.0 / 68.0)


def test_sweep_estimate_and_balance_describe_the_returned_cut():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(40):
        # disjoint pieces make free cuts, so the union often overshoots half
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 4)))
        edges, start = [], 0
        for s in sizes.tolist():
            piece = gnp_graph(s, float(rng.uniform(0.3, 0.9)), seed=int(rng.integers(2**31)))
            edges += [(u + start, v + start) for u, v in zip(piece.edge_u.tolist(),
                                                            piece.edge_v.tolist())]
            start += s
        H = Graph(start, edges)
        if H.total_volume == 0:
            continue
        phi = float(rng.uniform(0.05, 0.5))
        out = sweep_balanced_cut(H, H.deg, phi)
        if out.expander:
            continue
        vol_s, vol_c = H.volume(out.cut), H.total_volume
        assert 0 < vol_s <= vol_c / 2 * (1 + 1e-9)
        assert out.sparsity_estimate == pytest.approx(H.cut_weight(out.cut) / vol_s)
        assert out.sparsity_estimate <= phi * (1 + 1e-6)
        assert out.balance == pytest.approx(vol_s / vol_c)
        checked += 1
    assert checked >= 10
