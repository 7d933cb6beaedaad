"""Graph and stream generators for experiments and tests.

Every generator is a pure function of its parameters and seed.  A stream is
an (N, 3) int64 array of (u, v, delta) rows, delta +1 an insert and -1 a
delete, whose net result is exactly the input graph; decoy insert-then-delete
pairs on non-edges exercise deletion handling without changing the net graph.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, GraphError
from .prf import prf

_STREAM_TAG = 0x5347

# full reshuffles of the configuration model before it gives up
REGULAR_RESTARTS = 200

# most vertex pairs drawn at once (whole rows, at least one): the pair
# arrays of one block stay at a few tens of MB whatever n is
PAIR_BLOCK = 1 << 20


def _draw_pairs(n: int, seed: int, prob) -> Graph:
    """Unweighted graph keeping each pair u < v with one uniform draw below
    `prob(u, v)` (pair arrays in, probabilities out), row by row.

    Pairs are drawn in row-major blocks of whole rows; consecutive
    `Generator.random` calls return the doubles of one call, so the blocks
    draw what one pass over `np.triu_indices(n, 1)` would.
    """
    rng = np.random.default_rng(seed & ((1 << 64) - 1))
    sizes = np.arange(n - 1, 0, -1, dtype=np.int64)  # pairs in row u
    ends = np.cumsum(sizes)
    kept, a = [(np.zeros(0, dtype=np.int64),) * 2], 0
    while a < n - 1:
        before = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, before + PAIR_BLOCK, side="right")))
        u = np.repeat(np.arange(a, b, dtype=np.int64), sizes[a:b])
        # v = u + 1 + the pair's place in its row
        v = np.arange(1, u.size + 1, dtype=np.int64)
        v -= np.repeat(ends[a:b] - sizes[a:b] - before, sizes[a:b])
        v += u
        keep = rng.random(u.size) < prob(u, v)
        kept.append((u[keep], v[keep]))
        a = b
    u, v = map(np.concatenate, zip(*kept))
    return Graph.from_arrays(n, u, v, np.ones(u.size))


def gnp_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p): one uniform draw per pair u < v, row by row."""
    if not (0.0 <= p <= 1.0):
        raise GraphError("need p in [0, 1]")
    return _draw_pairs(n, seed, lambda u, v: p)


def random_regular_graph(n: int, d: int, seed: int = 0) -> Graph:
    """Configuration model: pair stubs, keep simple pairs, re-shuffle the rest.

    Loops and multi-edges are rejected pair-by-pair and their stubs go back
    into the pool; a full restart happens only when the leftover stubs admit
    no simple edge at all.
    """
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even for a d-regular graph")
    if not (0 <= d < n):
        raise GraphError("need 0 <= d < n")
    rng = np.random.default_rng(seed & ((1 << 64) - 1))

    def suitable(edges, counts):
        if not counts:
            return True
        nodes = sorted(counts)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                if (u, v) not in edges:
                    return True
        return False

    def attempt():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            counts = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for u, v in zip(it, it):
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    counts[u] = counts.get(u, 0) + 1
                    counts[v] = counts.get(v, 0) + 1
            if not suitable(edges, counts):
                return None
            stubs = [node for node, c in counts.items() for _ in range(c)]
        return edges

    for _ in range(REGULAR_RESTARTS):
        edges = attempt()
        if edges is not None:
            return Graph(n, sorted(edges))
    raise GraphError(f"configuration model failed after {REGULAR_RESTARTS} restarts")


def barbell_graph(c: int, s: int, bridges: int) -> Graph:
    """c copies of K_s, consecutive copies joined by `bridges` bridge edges."""
    if c < 1 or s < 1:
        raise GraphError("need c >= 1 cliques of size s >= 1")
    if not (0 <= bridges <= s):
        raise GraphError("need 0 <= bridges <= s between consecutive cliques")
    iu, iv = np.triu_indices(s, 1)
    base = np.arange(c, dtype=np.int64)[:, None] * s
    # clique edges block by block, then bridge j of each consecutive pair
    bridge = (base[:-1] + np.arange(bridges)).ravel()
    u = np.concatenate([(base + iu).ravel(), bridge])
    v = np.concatenate([(base + iv).ravel(), bridge + s])
    return Graph.from_arrays(c * s, u, v, np.ones(u.size))


def planted_partition_graph(c: int, s: int, p_in: float, p_out: float, seed: int = 0) -> Graph:
    """c clusters of size s; edge probability p_in within, p_out across,
    one uniform draw per pair u < v, row by row."""
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise GraphError("need p_in and p_out in [0, 1]")
    return _draw_pairs(c * s, seed, lambda u, v: np.where(u // s == v // s, p_in, p_out))


# the keyword arguments each graph model reads
MODEL_KEYS = {
    "regular": ("n", "d"),
    "gnp": ("n", "p"),
    "barbell": ("c", "s", "bridges"),
    "planted": ("c", "s", "p_in", "p_out"),
}


def gen_graph(model: str, seed: int = 0, **kw) -> Graph:
    """Graph of `model` (a key of `MODEL_KEYS`) from the keywords it reads;
    any other keyword raises, so a misspelt one is never ignored."""
    if model not in MODEL_KEYS:
        raise GraphError(f"unknown graph model {model!r}")
    unknown = sorted(set(kw) - set(MODEL_KEYS[model]))
    if unknown:
        raise GraphError(f"graph model {model!r} takes no {unknown[0]!r}")
    if model == "regular":
        return random_regular_graph(kw["n"], kw["d"], seed)
    if model == "gnp":
        return gnp_graph(kw["n"], kw["p"], seed)
    if model == "barbell":
        return barbell_graph(kw["c"], kw["s"], kw.get("bridges", 1))
    return planted_partition_graph(kw["c"], kw["s"], kw["p_in"], kw["p_out"], seed)


def gen_stream(G: Graph, churn: float, seed: int = 0) -> np.ndarray:
    """Shuffled (u, v, delta) rows whose net result is exactly G.

    Adds round(churn * |E|) decoy insert-then-delete pairs on distinct
    non-edges of G; every delete follows its matching insert, so a replay
    never removes an absent edge.
    """
    if not (np.isfinite(churn) and churn >= 0):
        raise GraphError(f"churn must be a finite number >= 0, got {churn!r}")
    if np.any(G.edge_u == G.edge_v) or np.any(G.edge_w != 1.0):
        raise GraphError("streams carry unweighted loop-free graphs")
    m = G.num_edges
    rng = np.random.default_rng(prf(seed, _STREAM_TAG) & ((1 << 63) - 1))
    edge_keys = set((int(u), int(v)) for u, v in zip(G.edge_u, G.edge_v))
    if len(edge_keys) != m:
        raise GraphError("streams cannot carry multi-edges")

    want = int(round(churn * m))
    decoys = []
    seen = set()
    guard = 0
    max_pairs = G.n * (G.n - 1) // 2
    while len(decoys) < want and guard < 200 * max(want, 1):
        guard += 1
        u = int(rng.integers(G.n))
        v = int(rng.integers(G.n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edge_keys or key in seen:
            continue
        seen.add(key)
        decoys.append(key)
    if len(decoys) < want and len(seen) + len(edge_keys) < max_pairs:
        # dense graph: fall back to enumerating the remaining non-edges
        for u in range(G.n):
            for v in range(u + 1, G.n):
                if len(decoys) >= want:
                    break
                key = (u, v)
                if key not in edge_keys and key not in seen:
                    seen.add(key)
                    decoys.append(key)

    events = []
    for u, v in zip(G.edge_u.tolist(), G.edge_v.tolist()):
        events.append((float(rng.random()), True, u, v))
    for u, v in decoys:
        a, b = sorted((float(rng.random()), float(rng.random())))
        while a == b:
            b = float(rng.random())
            a, b = min(a, b), max(a, b)
        events.append((a, True, u, v))
        events.append((b, False, u, v))
    events.sort()
    rows = [(u, v, 1 if ins else -1) for _, ins, u, v in events]
    return np.array(rows, dtype=np.int64).reshape(-1, 3)
