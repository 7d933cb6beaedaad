"""Dense slots against the sketch path, and the net graph's byte cap.

A `StreamState` whose sparsity budget covers the universe (k == n) keeps
the net graph, whose live pairs hold every slot.  Forcing the sketch
path through the `stream.dense_slots` predicate must give the same
serialized state and, where the sketch does not FAIL, the same recovered
sparsifier.  Stream pools hold one net graph whatever Y is: they must
decompose like offline pools that draw `sample_offline`, and every slot
must draw what a standalone state with the slot's params recovers.
"""

import importlib
import json
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powercut import (
    DecompParams,
    Graph,
    PoolTooLarge,
    SketchParams,
    SparsifierParams,
    SparsifierPools,
    StreamState,
    barbell_graph,
    decompose,
    gen_stream,
    gnp_graph,
    planted_partition_graph,
    sample_offline,
    save_stream,
)
from powercut import stream as stream_mod
from powercut.cli import main
from powercut.experiment import ExperimentConfig
from powercut.prf import prf
from powercut.stream import StreamError

from conftest import assert_same_graph

# the package re-exports the function `decompose` under the module's name
decompose_mod = importlib.import_module("powercut.decompose")

FAST = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@contextmanager
def sketch_path():
    """Context in which new states take the sketch path whatever k is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stream_mod, "dense_slots", lambda n, k: False)
        yield


def both_states(n, sp):
    dense = StreamState(n, sp)
    with sketch_path():
        sketched = StreamState(n, sp)
    assert dense.dense and not sketched.dense
    return dense, sketched


@st.composite
def churned_streams(draw):
    if draw(st.booleans()):
        G = barbell_graph(2, draw(st.integers(2, 6)), draw(st.integers(1, 2)))
    else:
        G = gnp_graph(draw(st.integers(2, 14)), draw(st.sampled_from([0.2, 0.5, 0.9])),
                      seed=draw(st.integers(0, 1000)))
    churn = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return G, gen_stream(G, churn=churn, seed=draw(st.integers(0, 1000)))


@FAST
@given(stream=churned_streams(), seed=st.integers(0, 10**6),
       ups_frac=st.floats(0.0, 1.0))
def test_dense_state_equals_sketch_state(stream, seed, ups_frac):
    G, updates = stream
    # any upsilon with ceil(8Y) >= n keeps k == n
    ups = G.n / 8.0 * (1.0 + 3.0 * ups_frac)
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=ups, seed=seed)
    dense, sketched = both_states(G.n, sp)
    dense.process_many(updates)
    sketched.process_many(updates)
    got = dense.recover_sparsifier()
    assert_same_graph(got, sample_offline(G, sp))
    want = sketched.recover_sparsifier()
    if want is not None:
        assert_same_graph(got, want)
    # a dense state is no larger than the n slots a recovery reads, held as
    # sketch rows
    shape = SketchParams(G.n, sketched.k, sketched.sketch_p, 0)
    assert dense.memory_bytes() <= G.n * 24 * shape.rows * shape.buckets_per_row + 8 * G.n
    assert dense.serialize() == sketched.serialize()


@pytest.mark.parametrize("path", ["dense", "sketch"])
def test_sketch_at_is_a_copy(path):
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=2.0, seed=4)
    dense, sketched = both_states(6, sp)
    updates = [(0, 1, 1), (0, 1, 1), (0, 2, -1)]
    for state in (dense, sketched):
        state.process_many(updates)
    state, other = (dense, sketched) if path == "dense" else (sketched, dense)
    sk = state.sketch_at(0, 0)
    assert sk.serialize() == other.sketch_at(0, 0).serialize()
    assert sk.recover() == {1: 2, 2: -1}
    sk.update(3, 1)
    assert state.sketch_at(0, 0).recover() == {1: 2, 2: -1}


@pytest.mark.parametrize("ops, isolated", [
    # an absent edge deleted twice: net entry -2 in both endpoints' slots
    ([(False, 0, 5), (False, 0, 5)], 0),
    # an edge inserted n more times: net entry n + 1
    ([(True, 2, 3)] * 8, 0),
    # an absent edge deleted once: net entry -1
    ([(False, 0, 5)], 0),
    # a present edge inserted again: net entry 2
    ([(True, 2, 3)], 0),
    # net entry -2 again, with an isolated vertex whose slot no update touched
    ([(False, 0, 5), (False, 0, 5)], 1),
], ids=[f"ops{i}" for i in range(5)])
def test_entry_outside_minus_one_to_n_fails_on_both_paths(ops, isolated):
    G = barbell_graph(2, 4, 1)
    extra = [(u, v, 1 if insert else -1) for insert, u, v in ops]
    updates = np.concatenate([gen_stream(G, churn=0.5, seed=2), extra])
    # Y = 4 puts every vertex at level 0, where the bad entry always is
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=4.0, seed=9)
    dense, sketched = both_states(G.n + isolated, sp)
    for state in (dense, sketched):
        state.process_many(updates)
        assert state.recover_sparsifier() is None


def test_bad_entry_below_every_recovery_level_is_not_read():
    # K_8 at Y = 1 is dense (k = ceil(8Y) = n) and puts every vertex at
    # j_v >= 1, so a pair of level 0 lies in no slot that recovery reads:
    # an extra copy of it (net count 2) fails neither path
    G = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=1.0, seed=5)
    levels = stream_mod.pair_levels(prf(sp.seed, stream_mod._LEVEL_TAG), G.edge_u, G.edge_v)
    u, v = G.edge_u[levels == 0][0], G.edge_v[levels == 0][0]
    dense, sketched = both_states(G.n, sp)
    for state in (dense, sketched):
        state.process_many(np.concatenate([gen_stream(G, churn=0.5, seed=3), [(u, v, 1)]]))
    j = stream_mod.vertex_levels(dense.deg, dense.upsilon, dense.levels)
    assert j.min() >= 1
    got = dense.recover_sparsifier()
    assert got is not None and got.num_edges > 0
    assert_same_graph(got, sketched.recover_sparsifier())


def test_more_than_k_nonzeros_fail_on_the_sketch_path():
    # k = ceil(8Y) = 1 < n.  Vertex 0, joined to the five others, recovers at
    # the top level 3, and under seed 14 two of its pairs lie there: its
    # recovery slot holds two nonzeros, both +1, so only k refuses it
    G = Graph(6, [(0, x) for x in range(1, 6)])
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=0.12, seed=14)
    state = StreamState(G.n, sp)
    assert not state.dense and state.k == 1
    state.process_many([(u, v, 1) for u, v, _ in G.edge_list()])
    j = stream_mod.vertex_levels(state.deg, state.upsilon, state.levels)
    levels = stream_mod.pair_levels(prf(sp.seed, stream_mod._LEVEL_TAG), G.edge_u, G.edge_v)
    assert j[0] == 3 and (levels >= j[0]).sum() == 2
    assert state.recover_sparsifier() is None
    # with the budget lifted the same slots peel to the offline draw
    state.k = G.n
    assert_same_graph(state.recover_sparsifier(), sample_offline(G, sp))


def _report_without_memory(report):
    fields = json.loads(report.to_json())
    del fields["memory_bytes"]
    return fields


# (graph, upsilon_override, seed): barbells at the formula Y, and Y = 2 and
# Y = 4, where k < n, so a standalone state with a slot's params would keep
# sketches while the pools draw from the net graph
POOL_CASES = (
    [(("barbell", 2, 4), None, s) for s in (1, 2, 3, 4)]
    + [(("barbell", 2, 10), None, s) for s in (1, 5, 7)]
    + [(("barbell", 3, 6), None, s) for s in (1, 3, 9, 11)]
    + [(("barbell", 2, 10), 2.0, s) for s in (1, 2, 3)]
    + [(("planted", 4, 16), 4.0, s) for s in (1, 2, 3)]
)


def _case_id(case):
    (model, c, size), ups, seed = case
    if ups is None:
        return f"{c}-{size}-{seed}"
    return f"{model}-{c}x{size}-Y{ups:g}-{seed}"


def _pool_graph(model, c, size):
    if model == "barbell":
        return barbell_graph(c, size, 1)
    return planted_partition_graph(c, size, 0.5, 0.02, seed=1)


@pytest.mark.parametrize("graph, upsilon_override, seed", POOL_CASES,
                         ids=[_case_id(case) for case in POOL_CASES])
def test_dense_stream_pools_decompose_like_offline_pools(monkeypatch, graph, upsilon_override,
                                                         seed):
    # each slot draws from the net graph exactly what `sample_offline` draws
    # from the final graph with the slot's parameters, so stream pools must
    # decompose like offline pools that draw `sample_offline`
    B = _pool_graph(*graph)
    params = DecompParams(eps=0.3, quality_k=2, seed=seed, upsilon_override=upsilon_override)
    pools = SparsifierPools(B.n, params)
    pools.feed_many(gen_stream(B, churn=0.5, seed=seed))
    streamed, streamed_report = decompose(pools, params, reference_graph=B)
    assert streamed_report.memory_bytes == 8 * B.n + 16 * B.num_edges
    monkeypatch.setattr(decompose_mod, "sample", sample_offline)
    offline, offline_report = decompose(B, params)
    assert [c.tolist() for c in streamed] == [c.tolist() for c in offline]
    assert _report_without_memory(streamed_report) == _report_without_memory(offline_report)
    drawn = SparsifierPools.offline(B, params, pools.sched)
    for d in range(1, streamed_report.pool_alg1_used + 1):
        assert_same_graph(pools.phase1(d), drawn.phase1(d))
    for j, count in streamed_report.iterations.items():
        for h in range(1, count + 1):
            assert_same_graph(pools.phase2(j, h), drawn.phase2(j, h))


# -- one net graph for every slot ----------------------------------------------------


@pytest.mark.parametrize("graph, pool_kw, dense_levels", [
    ("barbell", {}, {0, 1, 2, 3}),
    # k = ceil(8Y) = n again, but every vertex recovers at level 1, so the
    # slots' draws differ by seed
    ("K8", {"upsilon_override": 1.0}, {0, 1, 2, 3}),
    # k = 4 < n: a standalone state keeps sketches, and may FAIL
    ("barbell", {"upsilon_override": 0.5}, set()),
], ids=["dense", "dense-sampled", "sketch"])
def test_every_slot_draws_what_a_standalone_state_recovers(graph, pool_kw, dense_levels):
    # a decomposition from sketches equals one from the net graph, barring
    # FAILs: each slot's standalone state recovers the slot's draw
    B = barbell_graph(2, 4, 1) if graph == "barbell" else Graph(8, [
        (u, v) for u in range(8) for v in range(u + 1, 8)])
    params = DecompParams(eps=0.3, quality_k=2, seed=3, **pool_kw)
    updates = gen_stream(B, churn=0.5, seed=3)
    pools = SparsifierPools(B.n, params)
    pools.feed_many(updates)
    # never empty: the benchmark divides by this count
    assert len(list(pools.all_states())) == 1
    sched = pools.sched
    keys = [("phase1", d) for d in range(1, sched.depth_bound + 1)]
    keys += [("phase2", j, h) for j in range(1, sched.quality_k + 2)
             for h in range(1, sched.alg2_pool_size + 1)]
    dense, recovered = set(), 0
    for key in keys:
        alone = StreamState(B.n, pools._slot_params(key))
        alone.process_many(updates)
        if alone.dense:
            dense.add(decompose_mod._slot_level(key))
        want = alone.recover_sparsifier()
        got = pools.phase1(key[1]) if key[0] == "phase1" else pools.phase2(*key[1:])
        if want is None:
            assert not alone.dense
            continue
        recovered += 1
        assert_same_graph(got, want)
    assert dense == dense_levels
    assert recovered > len(keys) // 2


@pytest.mark.parametrize("upsilon_override, seed", [(None, s) for s in range(1, 7)] + [(1.0, 2)])
def test_dense_pool_refuses_a_stream_whose_net_graph_is_not_simple(upsilon_override, seed):
    # a present edge inserted again: net count 2, which every slot's draw
    # that keeps the pair reads
    B = barbell_graph(2, 4, 1)
    params = DecompParams(eps=0.3, quality_k=2, seed=seed, upsilon_override=upsilon_override)
    pools = SparsifierPools(B.n, params)
    updates = gen_stream(B, churn=0.0, seed=seed)
    pools.feed_many(np.concatenate([updates, updates[:1]]))
    with pytest.raises(StreamError):
        decompose(pools, params, reference_graph=B)


def test_sketch_state_recovery_allocates_no_row():
    B = barbell_graph(2, 4, 1)
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=0.5, seed=3)
    state = StreamState(B.n, sp)
    assert not state.dense
    state.process_many(gen_stream(B, churn=0.5, seed=1))
    before = state.memory_bytes()
    # the slots that no update reached stay the zero sketch, with no row
    assert state.recover_sparsifier() is not None
    assert state.memory_bytes() == before


# -- the net graph's byte cap ------------------------------------------------------


def test_pools_over_the_cap_allocate_nothing(monkeypatch):
    B = barbell_graph(2, 4, 1)
    params = DecompParams(eps=0.3, quality_k=2, seed=1)
    need = 8 * B.n
    assert SparsifierPools(B.n, params).memory_bytes() == need == 64
    monkeypatch.setattr(stream_mod, "POOL_BYTE_CAP", need)
    SparsifierPools(B.n, params)
    monkeypatch.setattr(stream_mod, "POOL_BYTE_CAP", need - 1)
    with pytest.raises(PoolTooLarge) as err:
        SparsifierPools(B.n, params)
    assert isinstance(err.value, ValueError)
    monkeypatch.undo()
    # 50,000 vertices: an n x n block would need 18.6 GiB, the live pairs of
    # a sparse stream need 16 bytes each; the pools and a single dense state
    # alike accept it and draw what `sample_offline` draws
    n = 50_000
    ring = Graph.from_arrays(n, np.arange(n), (np.arange(n) + 1) % n, np.ones(n))
    updates = gen_stream(ring, churn=0.5, seed=1)
    pools = SparsifierPools(n, params)
    pools.feed_many(updates)
    assert pools.memory_bytes() == 8 * n + 16 * n
    assert_same_graph(pools.phase1(1), sample_offline(ring, pools._slot_params(("phase1", 1))))
    formula = SparsifierParams(delta=0.25, eps=0.5, seed=1)
    state = StreamState(n, formula)
    assert state.dense
    state.process_many(updates)
    assert_same_graph(state.recover_sparsifier(), sample_offline(ring, formula))


def test_a_batch_over_the_cap_changes_nothing(monkeypatch):
    B = barbell_graph(2, 4, 1)
    pools = SparsifierPools(B.n, DecompParams(eps=0.3, quality_k=2, seed=1))
    (net,) = pools.all_states()
    updates = gen_stream(B, churn=0.5, seed=1)
    head, rest = updates[:10], updates[10:]
    pools.feed_many(head)
    before = [a.copy() for a in (net.deg, net.keys, net.counts)]
    assert net.keys.size > 0
    # a merge holds the live pairs and the batch rows at once
    need = 8 * B.n + 16 * (net.keys.size + len(rest))
    monkeypatch.setattr(stream_mod, "POOL_BYTE_CAP", need - 1)
    with pytest.raises(PoolTooLarge, match=f"POOL_BYTE_CAP = {need - 1}"):
        pools.feed_many(rest)
    for a, b in zip((net.deg, net.keys, net.counts), before):
        assert np.array_equal(a, b)
    monkeypatch.setattr(stream_mod, "POOL_BYTE_CAP", need)
    pools.feed_many(rest)
    assert np.array_equal(net.keys, np.sort(B.edge_u * B.n + B.edge_v))
    assert (net.counts == 1).all()


def test_cli_run_exits_2_for_pools_over_the_cap(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        generator={"model": "barbell", "c": 2, "s": 4, "bridges": 1},
        decomp={"eps": 0.3, "quality_k": 2, "mode": "exact"},
        stream={"churn": 0.5},
        trials=1,
        seed=11,
    )
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    out = tmp_path / "m.csv"
    assert main(["run", "--config", str(path), "--out-csv", str(out)]) == 0
    # the pools of 8 * 8 = 64 bytes take the stream's 25 rows as one batch,
    # which needs 64 + 16 * 25 = 464 bytes
    monkeypatch.setattr(stream_mod, "POOL_BYTE_CAP", 463)
    assert main(["run", "--config", str(path), "--out-csv", str(out)]) == 2


def test_cli_sketch_exits_2_for_a_dense_state_over_the_cap(tmp_path, monkeypatch, capsys):
    B = barbell_graph(2, 4, 1)
    path = tmp_path / "s.txt"
    save_stream(B.n, gen_stream(B, churn=0.5, seed=1), path)
    argv = ["sketch", "--stream", str(path), "--eps", "0.5", "--upsilon-override", "4",
            "--out", str(tmp_path / "h.txt")]
    # Y = 4 gives k = n = 8: a dense state, one net graph of 64 bytes, to
    # which the stream's 25 rows come as one batch of 64 + 16 * 25 bytes
    monkeypatch.setattr(stream_mod, "POOL_BYTE_CAP", 463)
    assert main(argv) == 2
    assert "POOL_BYTE_CAP = 463" in capsys.readouterr().err
    assert not (tmp_path / "h.txt").exists()
    monkeypatch.setattr(stream_mod, "POOL_BYTE_CAP", 464)
    assert main(argv) == 0


def test_cli_sketch_exits_2_for_a_huge_declared_n(tmp_path, capsys):
    # a header of n = 2^40 and Y = 2^37 make k = n: a dense state whose
    # degrees alone would take 8 TiB, refused before anything is allocated
    path = tmp_path / "s.txt"
    path.write_text(f"{2**40}\n+ 0 1\n")
    out = tmp_path / "h.txt"
    argv = ["sketch", "--stream", str(path), "--eps", "0.5", "--upsilon-override", str(2**37),
            "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "POOL_BYTE_CAP" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n, upsilon_override, net_bytes", [
    # planted 4x50: 478 slots
    (200, None, 1_600),
    # k = 32 < n: a sketch state a slot needed 2.05 GiB here
    (128, 4.0, 1_024),
], ids=["planted-4x50", "n128-Y4"])
def test_pools_hold_one_net_graph_whatever_y(n, upsilon_override, net_bytes):
    params = DecompParams(eps=0.3, quality_k=2, seed=1, upsilon_override=upsilon_override)
    pools = SparsifierPools(n, params)
    (net,) = pools.all_states()
    assert pools.memory_bytes() == net.memory_bytes() == 8 * n == net_bytes
