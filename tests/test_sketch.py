import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powercut import SketchParams, SparseRecoverySketch
from powercut.sketch import FIELD_PRIME, SketchError


def params(n=8, k=2, p=0.01, seed=1):
    return SketchParams(n, k, p, seed)


def apply_vector(sk, vec, rng=None, shuffle=False):
    """Apply a net vector as unit updates, optionally shuffled."""
    ups = []
    for i, v in vec.items():
        step = 1 if v > 0 else -1
        ups.extend([(i, step)] * abs(v))
    if shuffle:
        rng.shuffle(ups)
    for i, d in ups:
        sk.update(i, d)


def test_new_sketch_is_zero_and_recovers_empty():
    s = SparseRecoverySketch(params())
    assert not s.counts.any() and not s.id_sums.any() and not s.fps.any()
    assert s.recover() == {}


def test_equal_params_and_seed_give_identical_state():
    a = SparseRecoverySketch(params(seed=99))
    b = SparseRecoverySketch(params(seed=99))
    assert a.serialize() == b.serialize()


def test_space_matches_params():
    # C(5, 2) = 10 pairs over 10 buckets a row: 10 * 10^-r <= p at r = 3, 4
    # and 7, met with equality each time, plus one row
    for p, rows in ((0.01, 4), (1e-3, 5), (1e-6, 8)):
        sk = SparseRecoverySketch(params(n=32, k=5, p=p))
        assert sk.counts.shape == (rows, 10)
        assert sk.id_sums.shape == sk.counts.shape == sk.fps.shape
    # k = 1: no pair can collide, and the floor of one pair gives
    # ceil(log2(1/p)) + 1 rows
    assert params(n=8, k=1, p=1e-6).rows == 21


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 200),
       p=st.one_of(st.floats(1e-30, 0.99),
                   st.builds(lambda m, e: float(f"{m}e-{e}"), st.integers(1, 9),
                             st.integers(1, 20)),
                   st.builds(lambda n: float(n) ** -4.0, st.integers(2, 2000))))
def test_rows_are_one_past_the_least_r_meeting_the_pair_bound(k, p):
    # rows - 1 is the least r with max(1, C(k, 2)) * (2k)^-r <= p, in exact
    # rationals with p read as the decimal it prints as
    rows = SketchParams(max(k, 2), k, p, 0).rows
    pairs, exact_p = max(1, math.comb(k, 2)), Fraction(repr(p))

    def meets(r):
        return pairs * Fraction(1, 2 * k) ** r <= exact_p

    assert rows >= 1 and meets(rows - 1)
    assert rows == 1 or not meets(rows - 2)


def test_insert_delete_cancellation_bit_identical():
    s = SparseRecoverySketch(params())
    s.update(5, +1)
    s.update(5, -1)
    assert s.serialize() == SparseRecoverySketch(params()).serialize()


def test_unit_vector_recovery():
    s = SparseRecoverySketch(params(n=8, k=1))
    s.update(3, +1)
    assert s.recover() == {3: 1}


def test_update_order_irrelevant():
    rng = np.random.default_rng(4)
    vec = {0: 1, 3: -1, 7: 2}
    a = SparseRecoverySketch(params(k=3))
    apply_vector(a, vec)
    b = SparseRecoverySketch(params(k=3))
    apply_vector(b, vec, rng=rng, shuffle=True)
    assert a.serialize() == b.serialize()


def test_update_index_range_checked():
    s = SparseRecoverySketch(params())
    with pytest.raises(SketchError):
        s.update(8, +1)


def test_numpy_integers_update_like_python_ints():
    a, b = SparseRecoverySketch(params()), SparseRecoverySketch(params())
    a.update(np.int64(5), np.int32(-1))
    b.update(5, -1)
    assert a.serialize() == b.serialize()


@pytest.mark.parametrize("call", [
    lambda s: s.update(5.0, 1),
    lambda s: s.update(np.float64(5), 1),
    lambda s: s.update(5, 0.5),
    lambda s: s.update_many([5.7], [1]),
    lambda s: s.update_many([5], [0.5]),
    lambda s: s.update_many(np.array([5.0]), [1]),
], ids=["float-index", "numpy-float-index", "float-delta", "float-indices",
        "float-deltas", "float-array"])
def test_non_integer_updates_raise_before_any_change(call):
    s = SparseRecoverySketch(params())
    s.update(3, 1)
    before = s.serialize()
    with pytest.raises(SketchError):
        call(s)
    assert s.serialize() == before
    s.update_many([], [])
    assert s.serialize() == before


def test_merge_identity_and_cancellation():
    base = SparseRecoverySketch(params(k=2))
    base.update(1, +1)
    zero = SparseRecoverySketch(params(k=2))
    assert base.merge(zero).serialize() == base.serialize()

    e1 = SparseRecoverySketch(params(k=2))
    e1.update(1, +1)
    e2 = SparseRecoverySketch(params(k=2))
    e2.update(2, +1)
    assert e1.merge(e2).recover() == {1: 1, 2: 1}

    neg = SparseRecoverySketch(params(k=2))
    neg.update(1, -1)
    assert e1.merge(neg).recover() == {}


def test_merge_requires_matching_params():
    a = SparseRecoverySketch(params(seed=1))
    b = SparseRecoverySketch(params(seed=2))
    with pytest.raises(SketchError):
        a.merge(b)


def test_merge_behaves_as_sum_of_vectors():
    rng = np.random.default_rng(17)
    for trial in range(30):
        p = params(n=32, k=8, seed=trial)
        va = {int(i): 1 for i in rng.choice(32, size=3, replace=False)}
        vb = {int(i): 1 for i in rng.choice(32, size=3, replace=False)}
        a = SparseRecoverySketch(p)
        apply_vector(a, va)
        b = SparseRecoverySketch(p)
        apply_vector(b, vb)
        want = {}
        for vec in (va, vb):
            for i, v in vec.items():
                want[i] = want.get(i, 0) + v
        want = {i: v for i, v in want.items() if v != 0}
        assert a.merge(b).recover() == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), k_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1),
       data=st.data())
def test_merge_recovers_the_sum_and_equals_one_sketch_fed_both(n, k_frac, seed, data):
    sp = SketchParams(n, max(1, round(k_frac * n)), 1e-6, seed)
    # nets in {0, 1} and {-1, 0, 1}: their sum stays recoverable, in [-1, 2]
    va = data.draw(st.dictionaries(st.integers(0, n - 1), st.just(1), max_size=n))
    vb = data.draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from([-1, 1]), max_size=n))
    noise = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    ups_a = [(i, v) for i, v in va.items()] + [(i, d) for i in noise for d in (1, -1)]
    ups_b = list(vb.items())
    a, b, both = (SparseRecoverySketch(sp) for _ in range(3))
    for sk, ups in ((a, ups_a), (b, ups_b), (both, ups_a + ups_b)):
        for i, d in ups:
            sk.update(i, d)
    merged = a.merge(b)
    assert merged.serialize() == both.serialize()
    net = {i: va.get(i, 0) + vb.get(i, 0) for i in sorted(set(va) | set(vb))}
    net = {i: v for i, v in net.items() if v}
    assert merged.recover() == (net if len(net) <= sp.sparsity_budget else None)


def test_snapshot_roundtrip_bit_exact():
    s = SparseRecoverySketch(params(n=16, k=3, seed=5))
    s.update(2, +1)
    s.update(9, -1)
    blob = s.serialize()
    t = SparseRecoverySketch.deserialize(blob)
    assert t.serialize() == blob
    assert t.recover() == s.recover()


def snapshot(**kw):
    s = SparseRecoverySketch(params(**kw))
    s.update(3, 1)
    return s


def test_snapshot_rejects_short_header():
    with pytest.raises(SketchError):
        SparseRecoverySketch.deserialize(snapshot().serialize()[:39])


def test_snapshot_rejects_truncated_body():
    with pytest.raises(SketchError):
        SparseRecoverySketch.deserialize(snapshot().serialize()[:-1])


def test_snapshot_rejects_trailing_bytes():
    blob = snapshot().serialize()
    assert SparseRecoverySketch.deserialize(blob).recover() == {3: 1}
    with pytest.raises(SketchError):
        SparseRecoverySketch.deserialize(blob + b"garbage!")


@pytest.mark.parametrize("fp", [FIELD_PRIME, FIELD_PRIME + 1, (1 << 64) - 1])
def test_snapshot_rejects_unreduced_fingerprint(fp):
    s = snapshot()
    s.fps[-1, -1] = fp
    with pytest.raises(SketchError):
        SparseRecoverySketch.deserialize(s.serialize())


def test_linearity_exact_under_cancellation_noise():
    rng = np.random.default_rng(23)
    for trial in range(20):
        p = params(n=64, k=4, seed=trial)
        vec = {int(i): 1 for i in rng.choice(64, size=4, replace=False)}
        clean = SparseRecoverySketch(p)
        apply_vector(clean, vec)
        noisy = SparseRecoverySketch(p)
        events = [(i, +1) for i in vec]
        for _ in range(10):
            j = int(rng.integers(64))
            events.append((j, +1))
            events.append((j, -1))
        rng.shuffle(events)
        for i, d in events:
            noisy.update(i, d)
        assert noisy.serialize() == clean.serialize()


def test_oversparse_nets_fail():
    # 4k nonzeros at k=16: the k-budget makes these FAIL, well above the
    # 99% floor the contract asks for
    rng = np.random.default_rng(31)
    k = 16
    fails = 0
    trials = 1000
    for t in range(trials):
        p = SketchParams(256, k, 1e-3, seed=t)
        s = SparseRecoverySketch(p)
        for i in rng.choice(256, size=4 * k, replace=False):
            s.update(int(i), +1)
        if s.recover() is None:
            fails += 1
    assert fails >= 0.99 * trials


def test_soundness_mass_trials_no_wrong_vector():
    # recovery either FAILs or returns exactly the net vector; exercised
    # across sparse and oversubscribed nets at p = 1e-6
    rng = np.random.default_rng(47)
    trials = 10**5
    wrong = 0
    for t in range(trials):
        n, k = 8, 1
        p = SketchParams(n, k, 1e-6, seed=t)
        s = SparseRecoverySketch(p)
        support = rng.choice(n, size=int(rng.integers(0, 4)), replace=False)
        vec = {}
        for i in support:
            v = int(rng.integers(1, 3)) * (1 if rng.random() < 0.8 else -1)
            vec[int(i)] = v
            mul = 1 if v > 0 else -1
            for _ in range(abs(v)):
                s.update(int(i), mul)
        got = s.recover()
        if got is not None and got != vec:
            wrong += 1
    assert wrong == 0


def test_completeness_rate():
    # at most k nonzeros: success rate at least 1 - 2p
    rng = np.random.default_rng(53)
    trials = 10**4
    p_fail = 1e-3
    ok = 0
    for t in range(trials):
        n, k = 64, 4
        s = SparseRecoverySketch(SketchParams(n, k, p_fail, seed=t))
        size = int(rng.integers(0, k + 1))
        vec = {int(i): 1 for i in rng.choice(n, size=size, replace=False)}
        apply_vector(s, vec)
        if s.recover() == vec:
            ok += 1
    assert ok >= (1.0 - 2.0 * p_fail) * trials
