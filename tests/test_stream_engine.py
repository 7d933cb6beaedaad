"""Differential tests of the array stream engine against scalar references.

The engine (`StreamState.process_many`, `sketch.accumulate`) must leave every
sketch bit-identical to a loop of scalar `SparseRecoverySketch.update`
calls, whatever the batching, windowing or chunking.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powercut import (
    DecompParams,
    Graph,
    NetGraph,
    SketchParams,
    SparseRecoverySketch,
    SparsifierParams,
    SparsifierPools,
    StreamState,
    barbell_graph,
    decompose,
    gen_stream,
    sample_offline,
)
from powercut import sketch as sketch_mod
from powercut import stream as stream_mod
from powercut.prf import MASK64, leading_ones_array, prf
from powercut.sketch import SketchError
from powercut.stream import (
    _LEVEL_TAG,
    _SKETCH_TAG,
    StreamError,
    pair_levels,
    pick_level,
    vertex_levels,
)

from conftest import assert_same_graph

FAST = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# `sketch.FIELD_ARRAY_MIN` forcing fingerprint terms into array passes at any
# size, then onto Python ints at every size a test reaches
FIELD_CUTOVERS = (0, 1 << 30)


def leading_ones(x):
    """Oracle: leading 1-bits of a 64-bit word, from Python's `bit_length`."""
    return 64 - (~x & MASK64).bit_length()


def pair_level(level_seed, u, v):
    """Oracle of the level rule: leading ones of the scalar `prf` word."""
    return leading_ones(prf(level_seed, min(u, v), max(u, v)))


def params(**kw):
    base = dict(delta=0.25, eps=0.5, upsilon_override=2.0, seed=3)
    base.update(kw)
    return SparsifierParams(**base)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def churned_streams(draw, max_n=12):
    G = draw(graphs(max_n))
    churn = draw(st.sampled_from([0.0, 0.5, 1.0]))
    updates = gen_stream(G, churn=churn, seed=draw(st.integers(0, 1000)))
    return G, updates


# -- the sketch kernel -------------------------------------------------------------


@FAST
@given(
    n=st.integers(1, 60),
    k_frac=st.floats(0.0, 1.0),
    p=st.sampled_from([0.2, 0.01, 1e-5]),
    seed=st.integers(0, (1 << 64) - 1),
    data=st.data(),
)
def test_update_many_equals_update_loop(n, k_frac, p, seed, data):
    sp = SketchParams(n, max(1, round(k_frac * n)), p, seed)
    items = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([-3, -1, 1, 1, 2])), max_size=80)
    )
    loop = SparseRecoverySketch(sp)
    for i, d in items:
        loop.update(i, d)
    # fingerprint terms as array passes, then on Python ints
    for cutover in FIELD_CUTOVERS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sketch_mod, "FIELD_ARRAY_MIN", cutover)
            batch = SparseRecoverySketch(sp)
            batch.update_many([i for i, _ in items], [d for _, d in items])
            assert batch.serialize() == loop.serialize()
            # the negated batch cancels it exactly, back to the zero sketch
            batch.update_many([i for i, _ in items], [-d for _, d in items])
            assert batch.serialize() == SparseRecoverySketch(sp).serialize()


def test_update_many_windows_match_one_window(monkeypatch):
    sp = SketchParams(50, 6, 1e-4, 17)
    rng = np.random.default_rng(2)
    idx, d = rng.integers(0, 50, 500), rng.choice([-1, 1, 2], 500)
    whole = SparseRecoverySketch(sp)
    whole.update_many(idx, d)
    monkeypatch.setattr(sketch_mod, "WINDOW_CELLS", 1)  # one item per window
    windowed = SparseRecoverySketch(sp)
    windowed.update_many(idx, d)
    assert windowed.serialize() == whole.serialize()


def test_update_many_rejects_bad_input():
    sk = SparseRecoverySketch(SketchParams(8, 2, 0.01, 1))
    with pytest.raises(SketchError):
        sk.update_many([8], [1])
    with pytest.raises(SketchError):
        sk.update_many([-1], [1])
    with pytest.raises(SketchError):
        sk.update_many([1, 2], [1])


def test_field_helpers_match_python_ints():
    P = sketch_mod.FIELD_PRIME
    rng = np.random.default_rng(7)
    a = rng.integers(0, P, 2000, dtype=np.uint64)
    b = rng.integers(0, P, 2000, dtype=np.uint64)
    e = rng.integers(0, 5000, 2000)
    assert sketch_mod.field_mul(a, b).tolist() == [int(x) * int(y) % P for x, y in zip(a, b)]
    assert sketch_mod.field_pow(a, e).tolist() == [pow(int(x), int(y), P) for x, y in zip(a, e)]
    wide = np.array([0, P - 1, P, P + 1, 2 * P, (1 << 64) - 1], dtype=np.uint64)
    assert sketch_mod.field_reduce(wide).tolist() == [int(x) % P for x in wide]
    # fingerprint terms on both sides of the size choice, at sizes around it
    # and up to the largest vertex id a stream state admits
    top = stream_mod.POOL_BYTE_CAP // 8 - 1
    assert top == 2**28 - 1
    edge = sketch_mod.FIELD_ARRAY_MIN
    for size, ends in itertools.product((0, 1, edge - 1, edge, edge + 1), ([0, top], [top, 0])):
        v = rng.integers(-3, 2**40, size)
        r = rng.integers(0, P, size, dtype=np.uint64)
        x = rng.integers(0, top + 1, size)
        x[:2] = ends[:size]
        powers = [pow(int(b), int(c), P) for b, c in zip(r, x)]
        assert sketch_mod.field_pow(r, x).tolist() == powers
        want = [int(w) % P * y % P for w, y in zip(v, powers)]
        for cutover in FIELD_CUTOVERS + (edge,):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sketch_mod, "FIELD_ARRAY_MIN", cutover)
                got = sketch_mod.fingerprint_terms(v, r, x)
            assert got.dtype == np.uint64 and got.tolist() == want


# -- levels ------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 64) - 1), max_size=50))
def test_leading_ones_array_equals_scalar(words):
    words = words + [0, (1 << 64) - 1, 1 << 63, (1 << 64) - 2]
    got = leading_ones_array(np.array(words, dtype=np.uint64))
    assert got.tolist() == [leading_ones(w) for w in words]


def test_pair_levels_equal_scalar_pair_level():
    rng = np.random.default_rng(4)
    u, v = rng.integers(0, 500, 3000), rng.integers(0, 500, 3000)
    seed = prf(11, _LEVEL_TAG)
    assert pair_levels(seed, u, v).tolist() == [
        pair_level(seed, a, b) for a, b in zip(u.tolist(), v.tolist())
    ]


def _sample_offline_loop(G, sp):
    """The per-edge reference for `sample_offline`."""
    level_seed = prf(sp.seed, _LEVEL_TAG)
    ups = sp.upsilon_for(max(G.n, 1))
    top = max(1, int(np.ceil(np.log2(G.n)))) if G.n > 1 else 1
    j = [pick_level(float(G.deg[v]), ups, top) for v in range(G.n)]
    edges = []
    for u, v in zip(G.edge_u.tolist(), G.edge_v.tolist()):
        j_min = min(j[u], j[v])
        if pair_level(level_seed, u, v) >= j_min:
            edges.append((u, v, 2.0 ** j_min))
    return sorted(edges)


@FAST
@given(G=graphs(max_n=24), seed=st.integers(0, 10**6), ups=st.sampled_from([0.5, 1.0, 3.0]))
def test_sample_offline_equals_per_edge_loop(G, seed, ups):
    sp = params(upsilon_override=ups, seed=seed)
    assert_same_graph(sample_offline(G, sp), Graph(G.n, _sample_offline_loop(G, sp)))


def _recover_sparsifier_tuples(state):
    """The dict-and-tuples reference for `recover_sparsifier`."""
    j = vertex_levels(state.deg, state.upsilon, state.levels).tolist()
    edges = {}
    for v in range(state.n):
        neigh = state.sketch_at(j[v], v).recover()
        if neigh is None:
            return None
        for u in neigh:
            key = (u, v) if u < v else (v, u)
            edges[key] = 2.0 ** min(j[u], j[v])
    return Graph(state.n, [(u, v, w) for (u, v), w in sorted(edges.items())])


@FAST
@given(stream=churned_streams(max_n=12), seed=st.integers(0, 10**6),
       ups=st.sampled_from([0.5, 2.0]))
def test_recover_sparsifier_equals_tuple_built_graph(stream, seed, ups):
    G, updates = stream
    state = StreamState(G.n, params(upsilon_override=ups, seed=seed))
    state.process_many(updates)
    got, want = state.recover_sparsifier(), _recover_sparsifier_tuples(state)
    assert (got is None) == (want is None)
    if want is not None:
        assert_same_graph(got, want)


# -- the stream state --------------------------------------------------------------


@FAST
@given(stream=churned_streams(), seed=st.integers(0, 10**6), data=st.data())
def test_process_batching_gives_identical_state(stream, seed, data):
    G, updates = stream
    sp = params(seed=seed)
    one = StreamState(G.n, sp)
    for upd in updates:
        one.process(upd)
    whole = StreamState(G.n, sp)
    whole.process_many(updates)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(updates)), max_size=4)))
    split = StreamState(G.n, sp)
    for lo, hi in zip([0] + cuts, cuts + [len(updates)]):
        split.process_many(updates[lo:hi])
    # compare bytes first: serialize touches every slot
    assert one.memory_bytes() == whole.memory_bytes() == split.memory_bytes()
    assert one.serialize() == whole.serialize() == split.serialize()


def test_batch_that_cancels_out_matches_per_update_state():
    ups = np.array([(0, 1, 1), (0, 1, -1)])
    one = StreamState(4, params(seed=1))
    for upd in ups:
        one.process(upd)
    whole = StreamState(4, params(seed=1))
    whole.process_many(ups)
    assert one.serialize() == whole.serialize()


@FAST
@given(stream=churned_streams(max_n=10), seed=st.integers(0, 10**6))
def test_each_slot_matches_scalar_reference(stream, seed):
    G, updates = stream
    sp = params(seed=seed)
    state = StreamState(G.n, sp)
    state.process_many(updates)
    refs, level_seed = {}, prf(sp.seed, _LEVEL_TAG)
    for u, v, delta in updates.tolist():
        for i in range(min(pair_level(level_seed, u, v), state.levels) + 1):
            for vtx, idx in ((u, v), (v, u)):
                ref = refs.get((i, vtx))
                if ref is None:
                    seed_iv = prf(sp.seed, _SKETCH_TAG, i, vtx)
                    ref = SparseRecoverySketch(SketchParams(G.n, state.k, state.sketch_p, seed_iv))
                    refs[(i, vtx)] = ref
                ref.update(idx, delta)
    for (i, vtx), ref in refs.items():
        assert state.sketch_at(i, vtx).serialize() == ref.serialize()
    assert np.array_equal(state.deg, G.deg.astype(np.int64))


def test_engine_chunks_and_windows_match_one_pass(monkeypatch):
    G = barbell_graph(2, 6, 1)
    updates = gen_stream(G, churn=1.0, seed=3)
    whole = StreamState(G.n, params(seed=5))
    whole.process_many(updates)
    monkeypatch.setattr(stream_mod, "UPDATE_CHUNK", 7)
    monkeypatch.setattr(sketch_mod, "WINDOW_CELLS", 64)
    chunked = StreamState(G.n, params(seed=5))
    chunked.process_many(updates)
    assert chunked.memory_bytes() == whole.memory_bytes()
    assert chunked.serialize() == whole.serialize()


def test_construction_allocates_no_rows():
    state = StreamState(40, params())
    assert state.memory_bytes() == state.deg.nbytes


def test_bad_pair_leaves_state_untouched():
    state = StreamState(6, params())
    state.process((0, 1, 1))
    before = (state.memory_bytes(), state.deg.copy())
    with pytest.raises(StreamError):
        state.process_many([(2, 3, 1), (4, 6, 1)])
    with pytest.raises(StreamError):
        state.process_many(np.array([[1, 1, 1]]))
    assert state.memory_bytes() == before[0]
    assert np.array_equal(state.deg, before[1])
    with pytest.raises(StreamError):
        state.sketch_at(state.levels + 1, 0)


# -- the net graph's live pairs ----------------------------------------------------


# row runs of one pair: an insert, a delete, an insert that cancels to 0, a
# pair driven to -1 and back, and one driven to -2 and back to +1
MOTIFS = ([1], [-1], [1, -1], [-1, 1], [-1, -1, 1, 1, 1])


@st.composite
def netting_batches(draw):
    """n, +-1 rows over [0, n) built from `MOTIFS`, optionally shuffled, and
    the sorted points at which a run splits them into batches."""
    n = draw(st.integers(2, 7))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows += [(u, v, d) if draw(st.booleans()) else (v, u, d)
                 for d in draw(st.sampled_from(MOTIFS))]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    return n, np.array(rows, dtype=np.int64).reshape(-1, 3), cuts


def dict_net(n, rows):
    """Reference netting: degrees and the sorted live (key, count) pairs of a
    dict of net counts keyed min * n + max."""
    deg, net = [0] * n, {}
    for u, v, d in rows.tolist():
        deg[u] += d
        deg[v] += d
        key = min(u, v) * n + max(u, v)
        net[key] = net.get(key, 0) + d
    live = sorted(k for k, c in net.items() if c)
    return deg, live, [net[k] for k in live]


@FAST
@given(case=netting_batches())
def test_net_graph_nets_any_split_like_a_dict(case):
    n, rows, cuts = case
    whole = NetGraph(n)
    whole.process_many(rows)
    deg, keys, counts = dict_net(n, rows)
    assert whole.deg.tolist() == deg
    assert whole.keys.tolist() == keys and whole.counts.tolist() == counts
    split = NetGraph(n)
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        split.process_many(rows[lo:hi])
        # after every batch: the prefix's netting, and no pair of count 0
        deg, keys, counts = dict_net(n, rows[:hi])
        assert split.deg.tolist() == deg
        assert split.keys.tolist() == keys and split.counts.tolist() == counts
        assert split.counts.all()
    for a in ("deg", "keys", "counts"):
        assert np.array_equal(getattr(split, a), getattr(whole, a))
        assert getattr(split, a).dtype == np.int64


# -- pools -------------------------------------------------------------------------


def _pools_and_stream(seed):
    B = barbell_graph(2, 4, 1)
    params_d = DecompParams(eps=0.3, quality_k=2, seed=seed)
    return B, params_d, gen_stream(B, churn=0.5, seed=seed)


def test_pools_feed_many_equals_per_update_feed():
    B, params_d, updates = _pools_and_stream(42)
    kept = updates.copy()
    batch = SparsifierPools(B.n, params_d)
    batch.feed_many(updates)
    assert np.array_equal(updates, kept)  # the caller's rows are only read
    single = SparsifierPools(B.n, params_d)
    for upd in updates:
        single.feed(upd)
    (a,), (b,) = batch.all_states(), single.all_states()
    assert a.memory_bytes() == b.memory_bytes()
    assert np.array_equal(a.deg, b.deg)
    assert np.array_equal(a.keys, b.keys) and np.array_equal(a.counts, b.counts)
    _, rep_a = decompose(batch, params_d, reference_graph=B)
    _, rep_b = decompose(single, params_d, reference_graph=B)
    assert rep_a.to_json() == rep_b.to_json()


def test_pools_reject_bad_batch_before_any_state_changes():
    B, params_d, updates = _pools_and_stream(7)
    pools = SparsifierPools(B.n, params_d)
    with pytest.raises(StreamError):
        pools.feed_many(np.vstack([updates, [(0, B.n, 1)]]))
    (net,) = pools.all_states()
    assert not net.deg.any() and net.keys.size == net.counts.size == 0


# -- the same engine checks on the sketch path ---------------------------------------
#
# The state checks above use k = min(n, 16) = n, where a state keeps a net
# graph, as stream pools always do.  Their twins below take Y = 0.12, so k = 1 < n: the state is on the sketch
# path, and `accumulate`'s multi-slot windows and chunks stay exercised.

SKETCH_UPS = 0.12


@FAST
@given(stream=churned_streams(), seed=st.integers(0, 10**6), data=st.data())
def test_process_batching_gives_identical_state_on_sketch_path(stream, seed, data):
    G, updates = stream
    sp = params(upsilon_override=SKETCH_UPS, seed=seed)
    one = StreamState(G.n, sp)
    assert not one.dense
    for upd in updates:
        one.process(upd)
    whole = StreamState(G.n, sp)
    whole.process_many(updates)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(updates)), max_size=4)))
    split = StreamState(G.n, sp)
    for lo, hi in zip([0] + cuts, cuts + [len(updates)]):
        split.process_many(updates[lo:hi])
    assert one.memory_bytes() == whole.memory_bytes() == split.memory_bytes()
    assert one.serialize() == whole.serialize() == split.serialize()


def zero_slot(state, i, vtx):
    """Oracle of a slot no update touched: the zero sketch under its seed."""
    seed_iv = prf(state.seed, _SKETCH_TAG, i, vtx)
    return SparseRecoverySketch(SketchParams(state.n, state.k, state.sketch_p, seed_iv))


def scalar_slots(state, updates):
    """Oracle: {(level, vertex): sketch} of the slots `updates` touch in a
    sketch state shaped like `state`, built by scalar `update` calls."""
    refs, level_seed = {}, prf(state.seed, _LEVEL_TAG)
    for u, v, delta in updates.tolist():
        for i in range(min(pair_level(level_seed, u, v), state.levels) + 1):
            for vtx, idx in ((u, v), (v, u)):
                if (i, vtx) not in refs:
                    refs[(i, vtx)] = zero_slot(state, i, vtx)
                refs[(i, vtx)].update(idx, delta)
    return refs


@FAST
@given(stream=churned_streams(max_n=10), seed=st.integers(0, 10**6))
def test_each_slot_matches_scalar_reference_on_sketch_path(stream, seed):
    G, updates = stream
    sp = params(upsilon_override=SKETCH_UPS, seed=seed)
    state = StreamState(G.n, sp)
    assert not state.dense
    state.process_many(updates)
    refs = scalar_slots(state, updates)
    shape = SketchParams(G.n, state.k, state.sketch_p, 0)
    slot_bytes = 24 * shape.rows * shape.buckets_per_row
    assert state.memory_bytes() == len(refs) * slot_bytes + state.deg.nbytes
    for (i, vtx), ref in refs.items():
        assert state.sketch_at(i, vtx).serialize() == ref.serialize()
    assert np.array_equal(state.deg, G.deg.astype(np.int64))


def test_reads_allocate_no_rows_on_sketch_path():
    # barbell 2x10 and 10 vertices that no update touches
    B = barbell_graph(2, 10, 1)
    G = Graph(30, list(zip(B.edge_u.tolist(), B.edge_v.tolist())))
    sp = params(upsilon_override=0.5, seed=5)
    state = StreamState(G.n, sp)
    assert not state.dense
    updates = gen_stream(G, churn=0.5, seed=1)
    state.process_many(updates)
    held = state.memory_bytes()
    H = state.recover_sparsifier()
    blob = state.serialize()
    assert state.memory_bytes() == held
    assert_same_graph(H, sample_offline(G, sp))
    # every slot no update touched reads as the zero sketch under its seed
    refs = scalar_slots(state, updates)
    slots = [(i, vtx) for i in range(state.levels + 1) for vtx in range(G.n)]
    assert len(refs) < len(slots)
    assert blob == state.deg.tobytes() + b"".join(
        (refs[key] if key in refs else zero_slot(state, *key)).serialize() for key in slots)


def test_engine_chunks_and_windows_match_one_pass_on_sketch_path(monkeypatch):
    G = barbell_graph(2, 6, 1)
    updates = gen_stream(G, churn=1.0, seed=3)
    sp = params(upsilon_override=SKETCH_UPS, seed=5)
    whole = StreamState(G.n, sp)
    assert not whole.dense
    whole.process_many(updates)
    monkeypatch.setattr(stream_mod, "UPDATE_CHUNK", 7)
    monkeypatch.setattr(sketch_mod, "WINDOW_CELLS", 64)
    chunked = StreamState(G.n, sp)
    chunked.process_many(updates)
    assert chunked.memory_bytes() == whole.memory_bytes()
    assert chunked.serialize() == whole.serialize()
