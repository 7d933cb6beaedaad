import json
from dataclasses import asdict

import numpy as np
import pytest

from powercut import (
    DecompParams,
    DecompositionInvariantError,
    Graph,
    GraphError,
    PoolExhausted,
    Schedule,
    SparsifierPools,
    barbell_graph,
    decompose,
    gen_stream,
    gnp_graph,
    make_schedule,
    planted_partition_graph,
    verify_decomposition,
)
from powercut import cuts
from powercut.decompose import Decomposer

from conftest import complete_graph


def as_sorted_lists(clusters):
    return sorted(sorted(c.tolist()) for c in clusters)


# -- schedule -------------------------------------------------------------------


def test_schedule_phi0_example():
    sched = Schedule(eps=0.1, quality_k=2, alpha=2.0, b=1.0, delta=1 / 16, o_vol=256.0)
    assert sched.phi0 == pytest.approx(0.003125, rel=1e-12)


def test_schedule_single_step():
    sched = Schedule(eps=0.2, quality_k=1, alpha=1.5, b=1.0, delta=1 / 16, o_vol=100.0)
    vol = 50.0
    assert sched.tau(vol) == pytest.approx(sched.m(1, vol))
    assert sched.m(2, vol) == 1.0


def test_schedule_m_hits_one_exactly():
    sched = Schedule(eps=0.3, quality_k=3, alpha=1.3125, b=1.0, delta=1 / 16, o_vol=1000.0)
    assert sched.m(4, 123.456) == 1.0


def test_schedule_phi_final_identity():
    sched = Schedule(eps=0.25, quality_k=4, alpha=1.3, b=1.0, delta=1 / 16, o_vol=640.0)
    k = sched.quality_k
    assert sched.phi_final == pytest.approx(sched.phi0 * sched.alpha ** (-k - 1), rel=1e-12)


@pytest.mark.parametrize("mode, b", [("exact", 1.0), ("fast", 0.5)])
def test_schedule_is_derived_from_params(mode, b):
    params = DecompParams(eps=0.3, quality_k=2, delta=0.05, mode=mode)
    for n in (0, 1, 2, 30):
        sched = make_schedule(params, n)
        assert (sched.alpha, sched.b, sched.o_vol) == (1 + 5 * params.delta, b, max(n, 2) ** 2)
    _, rep = decompose(barbell_graph(2, 4, 1), DecompParams(eps=0.3, quality_k=2, mode=mode))
    assert (rep.alpha, rep.b, rep.phi_final) == (1.3125, b, 0.008424473341868872)


def test_params_validation():
    with pytest.raises(GraphError):
        DecompParams(eps=0.0, quality_k=2)
    with pytest.raises(GraphError):
        DecompParams(eps=0.2, quality_k=0)
    with pytest.raises(GraphError):
        DecompParams(eps=0.2, quality_k=2.5)
    with pytest.raises(GraphError):
        DecompParams(eps=0.2, quality_k=2, delta=0.2)
    with pytest.raises(GraphError):
        DecompParams(eps=0.2, quality_k=2, mode="bogus")
    for ups in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(GraphError, match="upsilon_override"):
            DecompParams(eps=0.2, quality_k=2, upsilon_override=ups)


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


def test_reruns_are_byte_identical_through_a_double_lambda_2_and_a_pair(monkeypatch):
    # a 30-cycle (whose lambda_2 is double) beside a second 30-cycle that
    # hangs a heavy pair: verify's sweep of the second peels its cycle off
    # and then meets the pair as a 2-vertex component
    def ring(off):
        return [(off + v, off + (v + 1) % 30) for v in range(30)]

    G = Graph(62, ring(0) + ring(30) + [(30, 60, 1.0), (60, 61, 50.0)])
    parts = [np.arange(30), np.arange(30, 62)]
    params = DecompParams(eps=0.3, quality_k=2, mode="fast", seed=1)
    sizes = []
    real = cuts._second_vector

    def recorded(edges, deg_h, ids):
        sizes.append(ids.size)
        return real(edges, deg_h, ids)

    monkeypatch.setattr(cuts, "_second_vector", recorded)
    runs = []
    for _ in range(2):
        clusters, rep = decompose(G, params)
        runs.append((
            [c.tolist() for c in clusters], rep.to_json(),
            verify_decomposition(G, clusters, params.eps, rep.phi_final).to_json(),
            verify_decomposition(G, parts, params.eps, 0.1).to_json(),
        ))
    assert runs[0] == runs[1]
    assert 30 in sizes and 2 in sizes


@pytest.mark.parametrize("mode", ["exact", "fast"])
def test_light_cycle_beside_a_heavy_pair_is_shaved_within_budget(mode):
    # the 30-cycle is a component with 60 of 2,122 volume (0.028), below
    # phase one's balance bar eps*b/4 (0.0375 fast, 0.075 exact), so phase
    # one's only cut is unbalanced; phase two shaves the cycle at j = 2,
    # where (b/2)*m_2 (6.3 fast, 12.6 exact) <= 60, and its 30 vertices
    # become singletons inside the eps/2 budget.  At pair weight 50 the
    # cycle holds 60 of 222 volume and phase one splits it off whole
    def ring(off):
        return [(off + v, off + (v + 1) % 30) for v in range(30)]

    for weight, singletons in ((1000.0, 30), (50.0, 0)):
        G = Graph(62, ring(0) + ring(30) + [(30, 60, 1.0), (60, 61, weight)])
        for seed in range(1, 6):
            params = DecompParams(eps=0.3, quality_k=2, mode=mode, seed=seed)
            clusters, rep = decompose(G, params)
            ones = np.array([c[0] for c in clusters if c.size == 1], dtype=np.int64)
            assert rep.singleton_count == ones.size == singletons
            assert G.volume(ones) <= params.eps / 2.0 * G.total_volume
            assert verify_decomposition(G, clusters, params.eps, rep.phi_final).ok


def test_verify_reruns_are_byte_identical_through_an_arpack_restart():
    # stars with weight-2 leaf loops: the sweep of the whole star at phi 0.5
    # takes its first vector from a multiple lambda_2 through an ARPACK
    # restart; with an unseeded restart vector, 8 and 21 of 30 reports
    # differed from the rest
    for n in (27, 36):
        G = Graph(n, [(0, v) for v in range(1, n)] + [(v, v, 2.0) for v in range(1, n)])
        reports = {verify_decomposition(G, [np.arange(n)], 0.3, 0.5).to_json()
                   for _ in range(8)}
        assert len(reports) == 1


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
    sched = SpikedSchedule(**dict(asdict(make_schedule(params, G.n)),
                                  o_vol=float(G.total_volume) ** 2))
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
    sched = ShallowSchedule(**dict(asdict(make_schedule(params, G.n)), o_vol=256.0))
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


# -- decompose's end-of-run checks -------------------------------------------------


def decompose_into(monkeypatch, G, clusters, params):
    """`decompose` with phase one replaced by a fixed partition of G."""
    monkeypatch.setattr(Decomposer, "low_depth_decomposition",
                        lambda self, C, depth: [np.asarray(c, dtype=np.int64) for c in clusters])
    return decompose(G, params)


def test_decompose_raises_past_intercluster_budget(monkeypatch):
    params = DecompParams(eps=0.3, quality_k=2, seed=1)
    with pytest.raises(DecompositionInvariantError) as err:
        decompose_into(monkeypatch, complete_graph(8), [[v] for v in range(8)], params)
    assert str(err.value) == "intercluster volume 56 exceeds eps*Vol = 16.8"


def test_decompose_raises_on_disconnected_exact_cluster(monkeypatch):
    two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    params = DecompParams(eps=0.3, quality_k=2, seed=1)
    phi = make_schedule(params, 6).phi_final
    with pytest.raises(DecompositionInvariantError) as err:
        decompose_into(monkeypatch, two, [range(6)], params)
    assert str(err.value) == f"final cluster of size 6 fails the {phi:.6g}-expander check"


@pytest.mark.parametrize("run", ["exact", "fast", "stream"])
def test_report_checks_equal_verify_decomposition(run):
    if run == "stream":
        G = barbell_graph(2, 4, 1)
        params = DecompParams(eps=0.3, quality_k=2, seed=42)
        pools = SparsifierPools(G.n, params)
        pools.feed_many(gen_stream(G, churn=0.5, seed=1))
        clusters, rep = decompose(pools, params, reference_graph=G)
    else:
        # fast: two 30-vertex blocks, above the exact limit, get sweep verdicts
        G = (planted_partition_graph(3, 6, 0.8, 0.05, seed=1) if run == "exact"
             else planted_partition_graph(2, 30, 0.6, 0.005, seed=3))
        params = DecompParams(eps=0.3, quality_k=2, mode=run, seed=5)
        clusters, rep = decompose(G, params)
    check = verify_decomposition(G, clusters, params.eps, rep.phi_final)
    assert rep.verdicts == [v.__dict__ for v in check.clusters]
    assert rep.intercluster_volume == check.intercluster_volume
    assert rep.intercluster_fraction == check.intercluster_fraction
    assert any(not v["exact"] for v in rep.verdicts) == (run == "fast")


# -- streaming mode ----------------------------------------------------------------


def test_streaming_decompose_matches_verifier():
    B = barbell_graph(2, 4, 1)
    params = DecompParams(eps=0.3, quality_k=2, seed=42)
    pools = SparsifierPools(8, params)
    pools.feed_many(gen_stream(B, churn=0.5, seed=1))
    clusters, rep = decompose(pools, params, reference_graph=B)
    assert verify_decomposition(B, clusters, params.eps, rep.phi_final).ok
    assert rep.memory_bytes > 0


def test_streaming_pools_reject_mismatched_params():
    params = DecompParams(eps=0.3, quality_k=2, seed=42)
    pools = SparsifierPools(8, params)
    other = DecompParams(eps=0.2, quality_k=2, seed=42)
    with pytest.raises(GraphError):
        decompose(pools, other)


@pytest.mark.parametrize("ref_n", [12, 8])
def test_reference_graph_of_the_wrong_size_is_refused_first(ref_n, monkeypatch):
    # without the check a 12-vertex reference ended in not-a-partition and an
    # 8-vertex one in a vertex id out of range, after the whole decomposition
    def no_slot(*args):
        raise AssertionError("a slot was drawn")

    monkeypatch.setattr(SparsifierPools, "_slot_params", no_slot)
    B = barbell_graph(2, 5, 1)
    params = DecompParams(eps=0.3, quality_k=2, seed=1)
    pools = SparsifierPools(B.n, params)
    pools.feed_many(gen_stream(B, churn=0.5, seed=1))
    reference = barbell_graph(2, ref_n // 2, 1)
    for source in (pools, B):
        with pytest.raises(GraphError, match=f"{ref_n} vertices, the source 10"):
            decompose(source, params, reference_graph=reference)


@pytest.mark.parametrize("seed", [6, 8, 13])
def test_fast_mode_phase_two_keeps_planted_blocks(seed):
    # the sweep once took a 2-vertex free cut, then overshot half with a
    # 60|60 block cut and returned only the 2 vertices; phase two then shaved
    # a whole block into singletons past their volume budget
    G = planted_partition_graph(10, 60, 0.3, 1e-4, seed=seed)
    params = DecompParams(eps=0.3, quality_k=2, mode="fast", seed=seed)
    clusters, rep = decompose(G, params)
    assert verify_decomposition(G, clusters, params.eps, rep.phi_final).ok
