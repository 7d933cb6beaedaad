"""The power-iteration memo that `decompose` hands to its sweeps.

A walk depends only on its inputs, so `cuts._second_vector` may return a
stored walk instead of running it again.  The memo must change no output,
must keep the step budget's verdict, and must live for one `decompose`
call only.
"""

import numpy as np
import pytest

from powercut import (
    DecompParams,
    Graph,
    SweepNumericFailure,
    barbell_graph,
    decompose,
    planted_partition_graph,
    verify_decomposition,
)
from powercut import cuts

SECOND_VECTOR = cuts._second_vector

CASES = {
    "fast planted 2x60": lambda: (
        planted_partition_graph(2, 60, 0.3, 0.002, 1),
        DecompParams(eps=0.3, quality_k=2, mode="fast", seed=1)),
    # reaches phase two (as in test_cheeger_certificate.py)
    "phase two 5x50": lambda: (
        planted_partition_graph(5, 50, 0.3, 0.0002, 4),
        DecompParams(eps=0.3, quality_k=2, mode="fast", seed=4)),
    # sub-unit draws: each depth samples its own sparsifier, so few walks repeat
    "Y = 16": lambda: (
        planted_partition_graph(5, 50, 0.7, 0.0002, 3),
        DecompParams(eps=0.3, quality_k=2, mode="fast", seed=3, upsilon_override=16.0)),
}


def count_walks(monkeypatch, memo=True):
    """Wrap `_second_vector`: count calls and memo hits; memo=False drops
    the memo, so every call walks.  Verify's sweeps pass no memo."""
    real = SECOND_VECTOR
    counts = {"calls": 0, "hits": 0}

    def counted(view, ids, max_iter, tol, walks=None):
        counts["calls"] += 1
        if walks is None or not memo:
            return real(view, ids, max_iter, tol)
        stored = len(walks)
        vec = real(view, ids, max_iter, tol, walks)
        counts["hits"] += len(walks) == stored
        return vec

    monkeypatch.setattr(cuts, "_second_vector", counted)
    return counts


def outputs(G, params):
    clusters, rep = decompose(G, params)
    check = verify_decomposition(G, clusters, params.eps, rep.phi_final)
    return rep.to_json(), check.to_json(), [c.tolist() for c in clusters]


@pytest.mark.parametrize("name", list(CASES))
def test_memo_changes_no_output(name, monkeypatch):
    G, params = CASES[name]()
    with_memo = count_walks(monkeypatch)
    got = outputs(G, params)
    without = count_walks(monkeypatch, memo=False)
    want = outputs(G, params)
    assert got == want
    assert with_memo["calls"] == without["calls"] > 0
    if name == "phase two 5x50":
        assert with_memo["hits"] > 0
    if name == "Y = 16":
        assert with_memo["hits"] < with_memo["calls"] / 2


def test_memo_keeps_the_step_budget():
    B = barbell_graph(2, 8, 1)
    view, comp = cuts._ClusterView.from_graph(B), np.arange(B.n)
    walks = {}
    primed = cuts._second_vector(view, comp, 1000, 1e-8, walks)
    ((stored, s),) = walks.values()
    assert s > 2 and np.array_equal(stored, primed)
    # s is the step at which the walk returns: the budget s - 1 fails
    with pytest.raises(SweepNumericFailure):
        cuts._second_vector(view, comp, s - 1, 1e-8)
    hit = cuts._second_vector(view, comp, s, 1e-8, walks)
    assert hit.tobytes() == cuts._second_vector(view, comp, s, 1e-8).tobytes()
    hit[:] = 0.0  # a copy: the stored walk is untouched
    assert np.array_equal(walks[next(iter(walks))][0], primed)
    with pytest.raises(SweepNumericFailure, match=f"in {s - 1} iterations"):
        cuts._second_vector(view, comp, s - 1, 1e-8, walks)
    assert len(walks) == 1


def test_memo_misses_on_any_other_input():
    # two weightings of one cycle with equal degrees, then another tol and
    # another active set: each call walks and stores, and none reads a hit
    ring = [(i, (i + 1) % 8) for i in range(8)]
    light, heavy = (Graph(8, [(u, v, 1.0 + (i % 2)) for i, (u, v) in enumerate(ring)]),
                    Graph(8, [(u, v, 2.0 - (i % 2)) for i, (u, v) in enumerate(ring)]))
    walks = {}
    for G, ids, tol in [(light, np.arange(8), 1e-8), (heavy, np.arange(8), 1e-8),
                        (heavy, np.arange(8), 1e-3), (heavy, np.arange(7), 1e-3)]:
        view = cuts._ClusterView.from_graph(G)
        got = cuts._second_vector(view, ids, 1000, tol, walks)
        assert got.tobytes() == cuts._second_vector(view, ids, 1000, tol).tobytes()
    assert len(walks) == 4


def test_memo_lives_for_one_decomposition(monkeypatch):
    G, params = CASES["phase two 5x50"]()
    counts = count_walks(monkeypatch)
    walked = []
    for _ in range(2):
        counts.update(calls=0, hits=0)
        decompose(G, params)
        walked.append(counts["calls"] - counts["hits"])
    assert walked[0] == walked[1] > 0
