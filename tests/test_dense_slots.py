"""Dense slots against the sketch path, and the pools' preflight byte cap.

A `StreamState` whose sparsity budget covers the universe (k == n) keeps
each slot as its net vector.  Forcing the sketch path through the
`stream.dense_slots` predicate must give the same serialized state, the same
bucket accounting and, where the sketch does not FAIL, the same recovered
sparsifier and decomposition.  Dense stream pools must also decompose like
offline pools that draw `sample_offline`.
"""

import importlib
import json
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powercut import (
    DecompParams,
    PoolTooLarge,
    SparsifierParams,
    SparsifierPools,
    StreamState,
    StreamUpdate,
    barbell_graph,
    decompose,
    gen_stream,
    gnp_graph,
    sample_offline,
)
from powercut import stream as stream_mod
from powercut.cli import main
from powercut.experiment import ExperimentConfig

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
    assert dense.total_buckets() == sketched.total_buckets()
    assert dense.memory_bytes() <= sketched.memory_bytes()
    got = dense.recover_sparsifier()
    assert_same_graph(got, sample_offline(G, sp))
    want = sketched.recover_sparsifier()
    if want is not None:
        assert_same_graph(got, want)
    assert dense.total_buckets() == sketched.total_buckets()
    assert dense.serialize() == sketched.serialize()
    assert dense.total_buckets() == sketched.total_buckets() == dense.bucket_budget()


def test_sketch_at_on_dense_state_is_a_copy():
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=2.0, seed=4)
    dense, sketched = both_states(6, sp)
    updates = [StreamUpdate(True, 0, 1), StreamUpdate(True, 0, 1), StreamUpdate(False, 0, 2)]
    for state in (dense, sketched):
        state.process_many(updates)
    sk = dense.sketch_at(0, 0)
    assert sk.serialize() == sketched.sketch_at(0, 0).serialize()
    assert sk.recover() == {1: 2, 2: -1}
    sk.update(3, 1)
    assert dense.sketch_at(0, 0).recover() == {1: 2, 2: -1}


@pytest.mark.parametrize("ops", [
    # an absent edge deleted twice: net entry -2 in both endpoints' slots
    [(False, 0, 5), (False, 0, 5)],
    # an edge inserted n more times: net entry n + 1
    [(True, 2, 3)] * 8,
    # an absent edge deleted once: net entry -1
    [(False, 0, 5)],
    # a present edge inserted again: net entry 2
    [(True, 2, 3)],
])
def test_entry_outside_minus_one_to_n_fails_on_both_paths(ops):
    G = barbell_graph(2, 4, 1)
    updates = gen_stream(G, churn=0.5, seed=2) + [StreamUpdate(*op) for op in ops]
    # Y = 4 puts every vertex at level 0, where the bad entry always is
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=4.0, seed=9)
    dense, sketched = both_states(G.n, sp)
    for state in (dense, sketched):
        state.process_many(updates)
        assert state.recover_sparsifier() is None


def test_more_than_k_nonzeros_fails_when_dense_rows_are_forced(monkeypatch):
    # k = 1 < n is never dense by default; vertex 0 nets degree 0, so it
    # recovers at level 0, where its row has two nonzeros
    updates = [StreamUpdate(True, 0, 1), StreamUpdate(False, 0, 2)]
    sp = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=0.12, seed=1)
    sketched = StreamState(6, sp)
    monkeypatch.setattr(stream_mod, "dense_slots", lambda n, k: True)
    dense = StreamState(6, sp)
    assert dense.dense and dense.k == 1 and not sketched.dense
    for state in (dense, sketched):
        state.process_many(updates)
        assert state.recover_sparsifier() is None


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
    monkeypatch.setattr(decompose_mod, "POOL_BYTE_CAP", 10_000)
    assert main(["run", "--config", str(path), "--out-csv", str(out)]) == 2


def test_cap_admits_dense_planted_4x50_and_refuses_its_sketch_budget():
    params = DecompParams(eps=0.3, quality_k=2, seed=1)
    pools = SparsifierPools(200, params)
    states = list(pools.all_states())
    assert len(states) == 478 and all(s.dense for s in states)
    need = sum(stream_mod.worst_case_bytes(200, s.params) for s in states)
    assert 1.3e9 < need <= decompose_mod.POOL_BYTE_CAP
    assert pools.memory_bytes() == sum(s.deg.nbytes for s in states)
    with sketch_path():
        with pytest.raises(PoolTooLarge):
            SparsifierPools(200, params)
