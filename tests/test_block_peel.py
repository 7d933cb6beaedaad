"""Differential tests of the block peel against the one-sketch scalar peel.

`sketch.peel` runs the peeling rounds of every slot of an (S, R, B) block at
once; `SparseRecoverySketch.recover` is a block of one, and
`StreamState.recover_sparsifier` peels its slots in groups.  The reference
below is the scalar peel `recover` ran before: Python hashing through `prf`,
a Python `pow` per candidate and per-item subtractions.  Field arithmetic is
exact on both sides, so every slot must give the same dict, or None.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powercut import (
    Graph,
    SketchParams,
    SparseRecoverySketch,
    SparsifierParams,
    StreamState,
    gen_stream,
    gnp_graph,
)
from powercut import sketch as sketch_mod
from powercut import stream as stream_mod
from powercut.prf import prf
from powercut.sketch import _FP_TAG, _ROW_TAG, FIELD_PRIME, peel, sketch_fp_bases, sketch_row_seeds
from powercut.stream import vertex_levels

from conftest import assert_same_graph

FAST = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def scalar_recover(sk):
    """The scalar peel: {index: value}, or None on FAIL."""
    sp = sk.params
    n, P = sp.universe_size, FIELD_PRIME
    base = prf(sp.seed, _FP_TAG) % (P - 3) + 2
    counts, id_sums, fps = (a.astype(object) for a in (sk.counts, sk.id_sums, sk.fps))
    out = {}
    for _ in range(n + 2):
        if not counts.any():
            break
        accepted = []
        seen = set()
        for r in range(sp.rows):
            for b in range(sp.buckets_per_row):
                c, s = int(counts[r, b]), int(id_sums[r, b])
                if c == 0 or s % c or not (0 <= s // c < n) or not (-1 <= c <= n):
                    continue
                i = s // c
                if i in seen:  # only the first pure cell of a candidate is checked
                    continue
                seen.add(i)
                if int(fps[r, b]) == c % P * pow(base, i, P) % P:
                    accepted.append((i, c))
        if not accepted:
            break
        for i, v in accepted:
            for r in range(sp.rows):
                b = prf(sp.seed, _ROW_TAG, r, i) % sp.buckets_per_row
                counts[r, b] -= v
                id_sums[r, b] -= v * i
                fps[r, b] = (int(fps[r, b]) - v * pow(base, i, P)) % P
            out[i] = out.get(i, 0) + v
    if counts.any() or id_sums.any() or fps.any():
        return None
    result = {i: v for i, v in sorted(out.items()) if v != 0}
    return result if len(result) <= sp.sparsity_budget else None


def test_fingerprint_base_is_the_scalar_formula():
    seeds = np.array([0, 1, 7, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
    assert sketch_fp_bases(seeds).tolist() == [
        prf(int(s), _FP_TAG) % (FIELD_PRIME - 3) + 2 for s in seeds
    ]
    assert sketch_row_seeds(seeds, 3).tolist() == [
        [prf(int(s), _ROW_TAG, r) for r in range(3)] for s in seeds
    ]


@st.composite
def blocks(draw):
    """1-20 sketches of one shape, each fed a net vector with values in
    [-3, 3] (possibly above k nonzeros) plus insert-delete noise."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, n))
    p = draw(st.sampled_from([0.3, 0.05, 1e-3]))
    sketches = []
    for _ in range(draw(st.integers(1, 20))):
        sk = SparseRecoverySketch(SketchParams(n, k, p, draw(st.integers(0, 2**64 - 1))))
        support = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 3 * k)))
        for i in support:
            v = draw(st.integers(-3, 3))
            for _ in range(abs(v)):
                sk.update(i, 1 if v > 0 else -1)
        for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
            sk.update(i, 1)
            sk.update(i, -1)
        sketches.append(sk)
    return sketches


@FAST
@given(sketches=blocks(), one_item_windows=st.booleans())
def test_block_peel_equals_scalar_peel_on_every_slot(sketches, one_item_windows):
    sp = sketches[0].params
    seeds = np.array([sk.params.seed for sk in sketches], dtype=np.uint64)
    want = [scalar_recover(sk) for sk in sketches]
    # fingerprint terms as array passes at every size, then on Python ints
    for cutover in (0, 1 << 30):
        block = [np.stack([getattr(sk, a) for sk in sketches]) for a in ("counts", "id_sums", "fps")]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sketch_mod, "FIELD_ARRAY_MIN", cutover)
            if one_item_windows:
                mp.setattr(sketch_mod, "WINDOW_CELLS", 1)
            slot, index, value, fail = peel(*block, sketch_row_seeds(seeds, sp.rows),
                                            sketch_fp_bases(seeds), sp.universe_size)
            recovered = [sk.recover() for sk in sketches]
        for s, sk in enumerate(sketches):
            got = dict(zip(index[slot == s].tolist(), value[slot == s].tolist()))
            if fail[s] or len(got) > sp.sparsity_budget:
                got = None
            assert got == want[s]
            assert recovered[s] == got


def _scalar_recover_sparsifier(state):
    """`recover_sparsifier` as a loop of scalar peels, one per vertex."""
    j = vertex_levels(state.deg, state.upsilon, state.levels).tolist()
    edges = {}
    for v in range(state.n):
        neigh = scalar_recover(state.sketch_at(j[v], v))
        if neigh is None or any(x != 1 for x in neigh.values()):
            return None
        for u in neigh:
            edges[(min(u, v), max(u, v))] = 2.0 ** min(j[u], j[v])
    return Graph(state.n, [(u, v, w) for (u, v), w in sorted(edges.items())])


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 16), p=st.sampled_from([0.2, 0.5, 0.9]), seed=st.integers(0, 10**6),
       ups=st.sampled_from([0.12, 0.5, 2.0]), bad=st.lists(st.tuples(
           st.booleans(), st.integers(0, 15), st.integers(0, 15)), max_size=2),
       one_slot_groups=st.booleans())
def test_recover_sparsifier_equals_scalar_peels(n, p, seed, ups, bad, one_slot_groups):
    G = gnp_graph(n, p, seed=seed)
    # a bad update (a delete of an absent edge, a second insert) nets an
    # entry other than 0 or 1
    extra = [(u % n, v % n, 1 if ins else -1) for ins, u, v in bad if u % n != v % n]
    updates = np.concatenate([gen_stream(G, churn=0.5, seed=seed),
                              np.array(extra, dtype=np.int64).reshape(-1, 3)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stream_mod, "dense_slots", lambda n, k: False)
        state = StreamState(n, SparsifierParams(delta=0.25, eps=0.5, upsilon_override=ups,
                                                seed=seed))
        state.process_many(updates)
        want = _scalar_recover_sparsifier(state)
        if one_slot_groups:
            mp.setattr(stream_mod, "WINDOW_CELLS", 1)
        got = state.recover_sparsifier()
    assert (got is None) == (want is None)
    if want is not None:
        assert_same_graph(got, want)


@pytest.mark.parametrize("group_cells", [1, 1 << 16])
def test_recover_sparsifier_peels_in_groups(monkeypatch, group_cells):
    # a k < n state: the sketch path's groups of slots, at one slot or many,
    # with fingerprint terms as array passes at every size, then on Python ints
    G = gnp_graph(40, 0.4, seed=3)
    monkeypatch.setattr(stream_mod, "WINDOW_CELLS", group_cells)
    for cutover in (0, 1 << 30):
        monkeypatch.setattr(sketch_mod, "FIELD_ARRAY_MIN", cutover)
        state = StreamState(40, SparsifierParams(delta=0.25, eps=0.5, upsilon_override=1.0,
                                                 seed=5))
        assert not state.dense
        state.process_many(gen_stream(G, churn=0.5, seed=4))
        assert_same_graph(state.recover_sparsifier(), _scalar_recover_sparsifier(state))
