"""The sweep's Cheeger certificate: sound against brute force, skipped where
it cannot apply, and outcome-neutral against the eigensolver path.

`_certified_expander` claims that lambda_2 / 2 of the normalized Laplacian
proves every cut's Phi' above phi_limit; the brute-force minimum over all
cuts checks that claim, and above the brute-force range its verdicts must
match a dense eigvalsh's.  With the check patched off, the sweep must reach
the same Expander verdict, must still agree with the dense-oracle reference
of `test_sweep_arrays.py`, and a whole decomposition must give
byte-identical reports and clusters.
"""

import numpy as np
import pytest
from powercut import (
    DecompParams,
    Graph,
    SparsifierParams,
    decompose,
    planted_partition_graph,
    random_regular_graph,
    sample,
    sweep_balanced_cut,
    verify_decomposition,
)
from powercut import cuts

from conftest import complete_graph
from test_sweep_arrays import assert_mostly_compared, check_sweep_against_oracle, sweep_draws


def min_phi_prime(H, deg_g):
    """min over cuts of w_H(S, rest) / min(Vol(S), Vol(rest)), volumes in deg_g."""
    n = H.n
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)  # S excludes vertex n-1
    inside = (masks[:, None] >> np.arange(n)) & 1
    crosses = inside[:, H.edge_u] != inside[:, H.edge_v]
    cut_w = crosses.astype(np.float64) @ H.edge_w
    vol_s = inside.astype(np.float64) @ deg_g
    return float(np.min(cut_w / np.minimum(vol_s, deg_g.sum() - vol_s)))


def lambda_2(H, deg_g):
    """Second eigenvalue of D_g^{-1/2} L_H D_g^{-1/2}, built edge by edge."""
    lap = np.zeros((H.n, H.n))
    for u, v, w in zip(H.edge_u.tolist(), H.edge_v.tolist(), H.edge_w.tolist()):
        if u != v:
            lap[u, u] += w
            lap[v, v] += w
            lap[u, v] -= w
            lap[v, u] -= w
    s = 1.0 / np.sqrt(deg_g)
    return float(np.linalg.eigvalsh(s[:, None] * lap * s[None, :])[1])


def random_cluster(rng):
    """A weighted graph with loops, and original degrees above H's own, as a
    sparsified cluster has them."""
    n = int(rng.integers(2, 15))
    p = float(rng.uniform(0.3, 1.0))
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < p
    u, v = u[keep], v[keep]
    loops = np.flatnonzero(rng.random(n) < 0.3)
    eu = np.concatenate([u, loops])
    ev = np.concatenate([v, loops])
    w = rng.choice([0.5, 1.0, 2.0, 4.0], size=eu.size) * rng.uniform(0.8, 1.25, eu.size)
    H = Graph.from_arrays(n, eu, ev, w)
    deg_g = H.deg * rng.uniform(1.0, 3.0, n) + rng.integers(0, 3, n)
    return H, deg_g


def test_certificate_is_sound_against_brute_force():
    rng = np.random.default_rng(2024)
    certified = refused = 0
    for _ in range(300):
        H, deg_g = random_cluster(rng)
        if np.any(deg_g <= 0):
            continue
        best = min_phi_prime(H, deg_g)
        half_lam = lambda_2(H, deg_g) / 2.0
        assert best >= half_lam * (1.0 - 1e-9) - 1e-12  # Cheeger's easy direction
        # targets around lambda_2 / 2, where the margin decides
        for factor in (0.5, 0.9, 0.999999, 1.0, 1.001, 2.0):
            phi_limit = half_lam * factor
            if not cuts._certified_expander(H, deg_g, phi_limit):
                refused += 1
                continue
            certified += 1
            assert best > phi_limit
            assert factor < 1.0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cuts, "_certified_expander", lambda *a: False)
                assert sweep_balanced_cut(H, deg_g, phi_limit).expander
    assert certified > 200 and refused > 200


def eigvalsh_verdict(H, deg_g, phi_limit):
    """The certificate as a dense eigvalsh, with a backward-error margin of
    16 n eps times a bound on N's largest eigenvalue."""
    lam = lambda_2(H, deg_g)
    err = 16.0 * H.n * float(np.finfo(np.float64).eps) * 2.0 * float(np.max(H.deg / deg_g))
    return lam / 2.0 - err > (1.0 + 1e-6) * phi_limit


def with_degrees(H):
    return H, H.deg


def ring(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def sparsified_block():
    """Block 0 of a planted 4x60 graph, drawn from a sampled sparsifier as
    `decompose` draws a cluster, with the original degrees (which count the
    edges to the other blocks) above its sampled ones."""
    G = planted_partition_graph(4, 60, 0.5, 0.1, 3)
    H = sample(G, SparsifierParams(delta=1 / 16, eps=0.3, upsilon_override=8.0, seed=5))
    C = np.arange(60)
    H_c = H.induce_with_loops(C)
    keep = H_c.edge_u != H_c.edge_v
    inner = np.bincount(H_c.edge_u[keep], H_c.edge_w[keep], 60) + np.bincount(
        H_c.edge_v[keep], H_c.edge_w[keep], 60)
    assert np.all(G.deg[C] > inner) and H_c.num_edges < G.induce_with_loops(C).num_edges
    return H_c, G.deg[C]


@pytest.mark.parametrize("case", [
    lambda: with_degrees(random_regular_graph(60, 18, 1)),
    lambda: with_degrees(random_regular_graph(120, 18, 2)),
    lambda: with_degrees(random_regular_graph(256, 18, 3)),
    lambda: with_degrees(ring(120)),
    sparsified_block,
], ids=["regular-60-18", "regular-120-18", "regular-256-18", "cycle-120", "sparsified-block"])
def test_certificate_agrees_with_eigvalsh_above_brute_force(case):
    H, deg_g = case()
    half_lam = lambda_2(H, deg_g) / 2.0
    assert eigvalsh_verdict(H, deg_g, 0.5 * half_lam)
    assert cuts._certified_expander(H, deg_g, 0.5 * half_lam)
    for factor in (1.0, 2.0):
        assert not eigvalsh_verdict(H, deg_g, factor * half_lam)
        assert not cuts._certified_expander(H, deg_g, factor * half_lam)


def test_certificate_skips_what_it_cannot_prove(monkeypatch):
    K8 = complete_graph(8)
    assert cuts._certified_expander(K8, K8.deg, 0.3)
    # a zero original degree
    deg = K8.deg.copy()
    deg[3] = 0.0
    assert not cuts._certified_expander(K8, deg, 0.3)
    # a disconnected H has lambda_2 = 0
    two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not cuts._certified_expander(two, two.deg, 1e-9)
    # one vertex
    one = Graph(1, [(0, 0, 2.0)])
    assert not cuts._certified_expander(one, one.deg, 0.0)
    # above the size limit
    monkeypatch.setattr(cuts, "CERTIFY_LIMIT", 7)
    assert not cuts._certified_expander(K8, K8.deg, 0.3)
    monkeypatch.setattr(cuts, "CERTIFY_LIMIT", 8)
    assert cuts._certified_expander(K8, K8.deg, 0.3)


def test_certified_sweep_runs_no_eigensolve(monkeypatch):
    K16 = complete_graph(16)

    def no_eigensolve(*args):
        raise AssertionError("eigensolve ran on a certified cluster")

    monkeypatch.setattr(cuts, "_second_vector", no_eigensolve)
    assert sweep_balanced_cut(K16, K16.deg, 0.3).expander


@pytest.mark.parametrize("name", ["k16", "regular-60-18"])
def test_eigensolve_path_still_declares_expanders(name, monkeypatch):
    if name == "k16":
        H, phi = complete_graph(16), 0.3
    else:
        H, phi = random_regular_graph(60, 18, 1), 0.1
    assert cuts._certified_expander(H, H.deg, phi)
    monkeypatch.setattr(cuts, "_certified_expander", lambda *a: False)
    assert sweep_balanced_cut(H, H.deg, phi).expander


def test_uncertified_sweep_matches_reference():
    # `ref_sweep` runs `sweep_balanced_cut` too, so with the certificate on
    # both sides would stop at it; off, every draw with a connected
    # component of two or more vertices reaches the eigensolve
    def uncertified(H, deg_g, phi):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cuts, "_certified_expander", lambda *a: False)
            return check_sweep_against_oracle(H, deg_g, phi)

    assert_mostly_compared(*sweep_draws(uncertified))


def run_outputs(G, params):
    clusters, rep = decompose(G, params)
    check = verify_decomposition(G, clusters, params.eps, rep.phi_final)
    return rep, rep.to_json(), check.to_json(), [c.tolist() for c in clusters]


def test_decomposition_is_byte_identical_without_the_certificate(monkeypatch):
    # planted 5x50 in fast mode reaches phase two at this seed
    G = planted_partition_graph(5, 50, 0.3, 0.0002, 4)
    params = DecompParams(eps=0.3, quality_k=2, mode="fast", seed=4)
    verdicts = []
    real = cuts._certified_expander

    def counted(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(cuts, "_certified_expander", counted)
    rep, *with_check = run_outputs(G, params)
    assert rep.iterations and any(verdicts) and not all(verdicts)
    monkeypatch.setattr(cuts, "_certified_expander", lambda *a: False)
    _, *without = run_outputs(G, params)
    assert with_check == without
