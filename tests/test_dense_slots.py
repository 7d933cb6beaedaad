"""Dense slots against the sketch path, and the pools' preflight byte cap.

A `StreamState` whose sparsity budget covers the universe (k == n) keeps
the net graph, one count block that holds every slot.  Forcing the sketch
path through the `stream.dense_slots` predicate must give the same
serialized state and, where the sketch does not FAIL, the same recovered
sparsifier and decomposition.  Dense stream pools must also decompose like
offline pools that draw `sample_offline`.  A dense pool holds one state for
all its slots, and every slot must draw what a state of its own would.
"""

import importlib
import json
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powercut import (
    DecompParams,
    Graph,
    PoolTooLarge,
    SparsifierParams,
    SparsifierPools,
    StreamState,
    barbell_graph,
    decompose,
    gen_stream,
    gnp_graph,
    sample_offline,
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
    # recovery leaves the sketch state holding a row for each of the n slots
    assert dense.memory_bytes() <= sketched.memory_bytes()
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


@pytest.mark.parametrize("clique_size,seed", [(4, 1), (4, 2), (4, 42), (10, 1), (10, 7)])
def test_dense_pools_decompose_like_sketch_pools(clique_size, seed):
    B = barbell_graph(2, clique_size, 1)
    params = DecompParams(eps=0.3, quality_k=2, seed=seed)
    updates = gen_stream(B, churn=0.5, seed=seed)
    dense = SparsifierPools(B.n, params)
    with sketch_path():
        sketched = SparsifierPools(B.n, params)
    assert all(s.dense for s in dense.all_states())
    assert not any(s.dense for s in sketched.all_states())
    outcomes = []
    for pools in (dense, sketched):
        pools.feed_many(updates)
        clusters, report = decompose(pools, params, reference_graph=B)
        outcomes.append((sorted(c.tolist() for c in clusters), _report_without_memory(report),
                         report.memory_bytes))
    assert outcomes[0][:2] == outcomes[1][:2]
    assert outcomes[0][2] < outcomes[1][2]


@pytest.mark.parametrize(
    "cliques,clique_size,seed",
    [(2, 4, s) for s in (1, 2, 3, 4)] + [(2, 10, s) for s in (1, 5, 7)]
    + [(3, 6, s) for s in (1, 3, 9, 11)],
)
def test_dense_stream_pools_decompose_like_offline_pools(monkeypatch, cliques, clique_size,
                                                         seed):
    # a dense state recovers exactly what `sample_offline` draws from the
    # final graph with the slot's parameters, so stream pools must decompose
    # like offline pools that draw `sample_offline`
    B = barbell_graph(cliques, clique_size, 1)
    params = DecompParams(eps=0.3, quality_k=2, seed=seed)
    pools = SparsifierPools(B.n, params)
    assert all(s.dense for s in pools.all_states())
    pools.feed_many(gen_stream(B, churn=0.5, seed=seed))
    streamed, streamed_report = decompose(pools, params, reference_graph=B)
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


# -- one state per distinct content ---------------------------------------------------


@pytest.mark.parametrize("graph, pool_kw, dense_levels", [
    ("barbell", {}, {0, 1, 2, 3}),
    # k = ceil(8Y) = n again, but every vertex recovers at level 1, so the
    # slots' draws differ by seed
    ("K8", {"upsilon_override": 1.0}, {0, 1, 2, 3}),
    ("barbell", {"upsilon_override": 0.5}, set()),
], ids=["dense", "dense-sampled", "sketch"])
def test_every_slot_draws_what_a_standalone_state_recovers(graph, pool_kw, dense_levels):
    B = barbell_graph(2, 4, 1) if graph == "barbell" else Graph(8, [
        (u, v) for u in range(8) for v in range(u + 1, 8)])
    params = DecompParams(eps=0.3, quality_k=2, seed=3, **pool_kw)
    updates = gen_stream(B, churn=0.5, seed=3)
    pools = SparsifierPools(B.n, params)
    pools.feed_many(updates)
    slots = pools.slot_states  # every phase-one, phase-two and spare slot
    dense = [key for key, state in slots.items() if state.dense]
    assert {decompose_mod._slot_level(key) for key in dense} == dense_levels
    # a pool is dense or sketched as a whole
    assert len(dense) == (len(slots) if pools.dense else 0)
    held = list(pools.all_states())
    # never empty: the benchmark divides by this count
    assert len(held) == (1 if pools.dense else len(slots))
    assert len(set(map(id, held))) == len(held)
    for key, state in slots.items():
        sp = pools._slot_params(key)
        alone = StreamState(B.n, sp)
        alone.process_many(updates)
        want, got = alone.recover_sparsifier(), state.recover_sparsifier(sp)
        if want is None:
            assert got is None
            continue
        assert_same_graph(got, want)
        if key[0] != "spare":
            fetched = pools.phase1(key[1]) if key[0] == "phase1" else pools.phase2(*key[1:])
            assert_same_graph(fetched, want)


@pytest.mark.parametrize("upsilon_override, seed", [(None, s) for s in range(1, 7)] + [(1.0, 2)])
def test_dense_pool_refuses_a_stream_whose_net_graph_is_not_simple(upsilon_override, seed):
    # a present edge inserted again: net count 2.  Every spare of a dense pool
    # reads the same net graph, so none is tried
    B = barbell_graph(2, 4, 1)
    params = DecompParams(eps=0.3, quality_k=2, seed=seed, upsilon_override=upsilon_override)
    pools = SparsifierPools(B.n, params, spares=3)
    assert pools.dense
    updates = gen_stream(B, churn=0.0, seed=seed)
    pools.feed_many(np.concatenate([updates, updates[:1]]))
    with pytest.raises(StreamError):
        decompose(pools, params, reference_graph=B)
    assert pools.fail_retries == 0


def test_sketch_state_refuses_foreign_params():
    B = barbell_graph(2, 4, 1)
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=0.5, seed=3)
    state = StreamState(B.n, sp)
    assert not state.dense
    state.process_many(gen_stream(B, churn=0.5, seed=1))
    before = state.memory_bytes()
    for other in (replace(sp, seed=4), replace(sp, eps=0.25)):
        with pytest.raises(StreamError):
            state.recover_sparsifier(other)
        assert state.memory_bytes() == before
    # params equal to its own are accepted, and this recovery touches slots
    # that no update reached
    assert_same_graph(state.recover_sparsifier(replace(sp)), state.recover_sparsifier())
    assert state.memory_bytes() > before


# -- preflight byte cap ---------------------------------------------------------------


def test_pools_over_the_cap_allocate_nothing(monkeypatch):
    built = []

    class CountingState(StreamState):
        def __init__(self, *args, **kw):
            built.append(1)
            super().__init__(*args, **kw)

    monkeypatch.setattr(decompose_mod, "StreamState", CountingState)
    B = barbell_graph(2, 4, 1)
    params = DecompParams(eps=0.3, quality_k=2, seed=1)
    states = list(SparsifierPools(B.n, params).all_states())
    assert len(built) == len(states)
    need = sum(stream_mod.worst_case_bytes(B.n, s.params) for s in states)
    monkeypatch.setattr(decompose_mod, "POOL_BYTE_CAP", need)
    SparsifierPools(B.n, params)
    built.clear()
    monkeypatch.setattr(decompose_mod, "POOL_BYTE_CAP", need - 1)
    with pytest.raises(PoolTooLarge) as err:
        SparsifierPools(B.n, params)
    assert isinstance(err.value, ValueError)
    assert not built


def test_cli_run_exits_2_for_pools_over_the_cap(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        generator={"model": "barbell", "c": 2, "s": 4, "bridges": 1},
        decomp={"eps": 0.3, "quality_k": 2, "mode": "exact"},
        stream={"churn": 0.5, "spares": 1},
        trials=1,
        seed=11,
    )
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    out = tmp_path / "m.csv"
    assert main(["run", "--config", str(path), "--out-csv", str(out)]) == 0
    # the pools hold one net-count state of 8 * 8**2 + 8 * 8 = 576 bytes
    monkeypatch.setattr(decompose_mod, "POOL_BYTE_CAP", 500)
    assert main(["run", "--config", str(path), "--out-csv", str(out)]) == 2


def test_cap_admits_dense_planted_4x50_and_refuses_its_sketch_budget():
    params = DecompParams(eps=0.3, quality_k=2, seed=1)
    pools = SparsifierPools(200, params)
    # 478 slots, all dense, read one net-count state
    states = list(pools.all_states())
    assert len(pools.slot_states) == 478 and len(states) == 1 and states[0].dense
    need = stream_mod.worst_case_bytes(200, states[0].params)
    assert need == 8 * 200**2 + 8 * 200 == 321_600
    assert pools.memory_bytes() == need
    with sketch_path():
        with pytest.raises(PoolTooLarge):
            SparsifierPools(200, params)


def test_cap_admits_sketch_pools_at_64_vertices_and_refuses_them_at_128():
    # Y = 4 gives k = 32 < n: one sketch state a slot, each keeping levels
    # 0..L* of R-row sketches.  Slots are lazy, so before the feed the
    # admitted pools hold their degree counters alone
    params = DecompParams(eps=0.3, quality_k=2, seed=1, upsilon_override=4.0)
    pools = SparsifierPools(64, params)
    states = list(pools.all_states())
    assert not pools.dense and len(states) == 227
    need = sum(stream_mod.worst_case_bytes(64, s.params) for s in states)
    assert need <= decompose_mod.POOL_BYTE_CAP
    assert pools.memory_bytes() == 227 * 8 * 64
    with pytest.raises(PoolTooLarge):
        SparsifierPools(128, params)
