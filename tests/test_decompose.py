import json

import numpy as np
import pytest

from powercut import (
    DecompParams,
    Graph,
    GraphError,
    PoolExhausted,
    Schedule,
    SketchFailExhausted,
    SparsifierPools,
    barbell_graph,
    decompose,
    gen_stream,
    gnp_graph,
    make_schedule,
    planted_partition_graph,
    verify_decomposition,
)
from powercut.decompose import Decomposer

from conftest import complete_graph


def as_sorted_lists(clusters):
    return sorted(sorted(c.tolist()) for c in clusters)


# -- schedule -------------------------------------------------------------------


def test_schedule_phi0_example():
    params = DecompParams(eps=0.1, quality_k=2, alpha=2.0, o_vol=256.0)
    sched = make_schedule(params, n=16)
    assert sched.phi0 == pytest.approx(0.003125, rel=1e-12)


def test_schedule_single_step():
    params = DecompParams(eps=0.2, quality_k=1, alpha=1.5, o_vol=100.0)
    sched = make_schedule(params, n=10)
    vol = 50.0
    assert sched.tau(vol) == pytest.approx(sched.m(1, vol))
    assert sched.m(2, vol) == 1.0


def test_schedule_m_hits_one_exactly():
    params = DecompParams(eps=0.3, quality_k=3, o_vol=1000.0)
    sched = make_schedule(params, n=30)
    assert sched.m(4, 123.456) == 1.0


def test_schedule_phi_final_identity():
    params = DecompParams(eps=0.25, quality_k=4, alpha=1.3, o_vol=640.0)
    sched = make_schedule(params, n=25)
    k = params.quality_k
    assert sched.phi_final == pytest.approx(sched.phi0 * sched.alpha ** (-k - 1), rel=1e-12)


def test_params_validation():
    with pytest.raises(GraphError):
        DecompParams(eps=0.0, quality_k=2)
    with pytest.raises(GraphError):
        DecompParams(eps=0.2, quality_k=0)
    with pytest.raises(GraphError):
        DecompParams(eps=0.2, quality_k=2, delta=0.2)
    with pytest.raises(GraphError):
        DecompParams(eps=0.2, quality_k=2, mode="bogus")


# -- end-to-end decomposition ----------------------------------------------------


def test_k16_is_one_cluster():
    K16 = complete_graph(16)
    clusters, rep = decompose(K16, DecompParams(eps=0.3, quality_k=2, seed=5))
    assert as_sorted_lists(clusters) == [list(range(16))]
    assert rep.depth == 1
    assert rep.intercluster_volume == 0.0


def test_disjoint_cliques_split_once():
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges += [(8 + i, 8 + j) for i in range(8) for j in range(i + 1, 8)]
    G = Graph(16, edges)
    clusters, rep = decompose(G, DecompParams(eps=0.3, quality_k=2, seed=5))
    assert as_sorted_lists(clusters) == [list(range(8)), list(range(8, 16))]
    assert rep.depth == 2


def test_barbell_end_to_end_passes_verifier():
    B = barbell_graph(2, 8, 1)
    params = DecompParams(eps=0.3, quality_k=2, seed=7)
    clusters, rep = decompose(B, params)
    v = verify_decomposition(B, clusters, params.eps, rep.phi_final)
    assert v.ok
    assert rep.intercluster_volume <= params.eps * B.total_volume


def test_planted_both_modes_pass_verifier():
    P = planted_partition_graph(4, 8, 0.9, 0.02, seed=9)
    for mode in ("exact", "fast"):
        params = DecompParams(eps=0.3, quality_k=2, seed=11, mode=mode)
        clusters, rep = decompose(P, params)
        v = verify_decomposition(P, clusters, params.eps, rep.phi_final)
        assert v.ok, (mode, v.to_json())


def test_empty_graph_decomposes_into_singletons():
    clusters, rep = decompose(Graph(5), DecompParams(eps=0.3, quality_k=2, seed=1))
    assert as_sorted_lists(clusters) == [[0], [1], [2], [3], [4]]
    assert rep.singleton_count == 5
    assert rep.intercluster_volume == 0.0


def test_isolated_vertices_become_singletons():
    G = Graph(6, [(0, 1), (1, 2), (0, 2)])  # 3, 4, 5 isolated
    clusters, _ = decompose(G, DecompParams(eps=0.3, quality_k=2, seed=2))
    assert as_sorted_lists(clusters) == [[0, 1, 2], [3], [4], [5]]


def test_decompose_deterministic():
    G = gnp_graph(14, 0.4, seed=21)
    params = DecompParams(eps=0.3, quality_k=2, seed=13)
    c1, r1 = decompose(G, params)
    c2, r2 = decompose(G, params)
    assert as_sorted_lists(c1) == as_sorted_lists(c2)
    assert r1.to_json() == r2.to_json()


def test_report_json_shape():
    B = barbell_graph(2, 4, 1)
    _, rep = decompose(B, DecompParams(eps=0.3, quality_k=2, seed=3))
    payload = json.loads(rep.to_json())
    for key in ("depth", "iterations", "phi_final", "intercluster_fraction",
                "cluster_sizes", "verdicts", "singleton_count"):
        assert key in payload


# -- phase two mechanics ----------------------------------------------------------


class SpikedSchedule(Schedule):
    """Schedule with artificially large sparsity targets so that phase two
    actually shaves cuts at desk scale."""

    def phi(self, j):
        return 0.3 * self.alpha ** (1 - j)

    @property
    def phi0(self):
        return 0.3 * self.alpha


def pendant_triangle_graph():
    # K16 plus a K3 pendant hanging off vertex 0 by a single edge
    edges = [(i, j) for i in range(16) for j in range(i + 1, 16)]
    edges += [(16, 17), (16, 18), (17, 18), (0, 16)]
    return Graph(19, edges)


def spiked_driver(G, eps=0.2, k=2, seed=3):
    params = DecompParams(eps=eps, quality_k=k, seed=seed)
    sched = SpikedSchedule(
        eps=eps, quality_k=k, alpha=params.resolved_alpha, b=params.resolved_b,
        delta=params.delta, o_vol=float(G.total_volume) ** 2,
    )
    pools = SparsifierPools.offline(G, params, sched)
    return Decomposer(pools, reference=G), sched


def test_phase_two_shaves_pendant_into_singletons():
    G = pendant_triangle_graph()
    driver, sched = spiked_driver(G)
    clusters = driver.low_depth_decomposition(np.arange(19, dtype=np.int64), 1)
    assert as_sorted_lists(clusters) == [list(range(16)), [16], [17], [18]]
    rep = driver.report
    assert rep.iterations == {1: 1, 2: 2}
    assert rep.composition_checks >= 1


def test_phase_two_first_verdict_returns_whole_cluster():
    K = complete_graph(8)
    driver, _ = spiked_driver(K, eps=0.2, k=2)
    clusters = driver.unbalanced_cluster_decomposition(np.arange(8, dtype=np.int64))
    assert as_sorted_lists(clusters) == [list(range(8))]
    assert driver.report.iterations == {1: 1}


def test_phase_two_respects_inner_bound_counterexample_free():
    G = pendant_triangle_graph()
    driver, sched = spiked_driver(G)
    driver.low_depth_decomposition(np.arange(19, dtype=np.int64), 1)
    cap = sched.inner_bound(G.total_volume)
    for j, count in driver.report.iterations.items():
        assert count <= cap


def test_pool_exhaustion_is_a_configuration_error():
    class ShallowSchedule(Schedule):
        @property
        def depth_bound(self):
            return 1

    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges += [(8 + i, 8 + j) for i in range(8) for j in range(i + 1, 8)]
    G = Graph(16, edges)
    params = DecompParams(eps=0.3, quality_k=2, seed=1)
    sched = ShallowSchedule(
        eps=0.3, quality_k=2, alpha=params.resolved_alpha, b=params.resolved_b,
        delta=params.delta, o_vol=256.0,
    )
    pools = SparsifierPools.offline(G, params, sched)
    driver = Decomposer(pools, reference=G)
    with pytest.raises(PoolExhausted):
        driver.low_depth_decomposition(np.arange(16, dtype=np.int64), 1)


# -- verification -----------------------------------------------------------------


def test_verify_k16_at_half():
    K16 = complete_graph(16)
    rep = verify_decomposition(K16, [np.arange(16)], eps=0.3, phi=0.5)
    assert rep.ok
    assert rep.clusters[0].exact
    assert rep.clusters[0].min_conductance == pytest.approx(8.0 / 15.0)


def test_verify_singletons_fail_on_volume():
    K8 = complete_graph(8)
    rep = verify_decomposition(K8, [np.array([v]) for v in range(8)], eps=0.9, phi=0.1)
    assert not rep.ok and not rep.volume_ok


def test_verify_large_cluster_flagged_heuristic():
    P = planted_partition_graph(4, 8, 0.9, 0.02, seed=9)
    rep = verify_decomposition(P, [np.arange(32)], eps=0.3, phi=0.001)
    assert not rep.clusters[0].exact
    assert rep.clusters[0].passed


def test_verify_detects_nonexpander_cluster():
    two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rep = verify_decomposition(two, [np.arange(6)], eps=0.5, phi=0.1)
    assert not rep.ok
    assert rep.volume_ok
    assert rep.clusters[0].min_conductance == 0.0


# -- streaming mode ----------------------------------------------------------------


def test_streaming_decompose_matches_verifier():
    B = barbell_graph(2, 4, 1)
    params = DecompParams(eps=0.3, quality_k=2, seed=42)
    pools = SparsifierPools(8, params, spares=1)
    pools.feed_many(gen_stream(B, churn=0.5, seed=1))
    clusters, rep = decompose(pools, params, reference_graph=B)
    assert verify_decomposition(B, clusters, params.eps, rep.phi_final).ok
    assert rep.memory_bytes > 0


def test_streaming_pools_reject_mismatched_params():
    params = DecompParams(eps=0.3, quality_k=2, seed=42)
    pools = SparsifierPools(8, params, spares=0)
    other = DecompParams(eps=0.2, quality_k=2, seed=42)
    with pytest.raises(GraphError):
        decompose(pools, other)


def test_stream_pool_spare_retry_and_exhaustion():
    # tiny sparsity budget (k = 1) makes per-slot FAILs common on K6
    K6 = complete_graph(6)
    upds = gen_stream(K6, churn=0.0, seed=2)

    def build(spares, seed):
        params = DecompParams(
            eps=0.3, quality_k=1, seed=seed, upsilon_override=0.12
        )
        pools = SparsifierPools(6, params, spares=spares)
        pools.feed_many(upds)
        return pools

    retried = exhausted = False
    for seed in range(30):
        pools = build(spares=4, seed=seed)
        try:
            pools.phase1(1)
        except SketchFailExhausted:
            continue
        if pools.fail_retries > 0:
            retried = True
        pools0 = build(spares=0, seed=seed)
        try:
            pools0.phase1(1)
        except SketchFailExhausted:
            exhausted = pools.fail_retries > 0
        if retried and exhausted:
            break
    assert retried and exhausted


@pytest.mark.parametrize("seed", [6, 8, 13])
def test_fast_mode_phase_two_keeps_planted_blocks(seed):
    # the sweep once took a 2-vertex free cut, then overshot half with a
    # 60|60 block cut and returned only the 2 vertices; phase two then shaved
    # a whole block into singletons past their volume budget
    G = planted_partition_graph(10, 60, 0.3, 1e-4, seed=seed)
    params = DecompParams(eps=0.3, quality_k=2, mode="fast", seed=seed)
    clusters, rep = decompose(G, params)
    assert verify_decomposition(G, clusters, params.eps, rep.phi_final).ok
