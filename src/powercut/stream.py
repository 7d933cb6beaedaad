"""Dynamic-stream construction of the degree-sampled sparsifier.

During the stream we maintain, per vertex, an exact degree counter and one
sparse-recovery sketch per sampling level.  Level i keeps each edge with
probability 2^-i, realized by giving every unordered pair a deterministic
geometric level through the seeded PRF (the pair belongs to level graph i
iff its level is >= i; level 0 is the full graph).

At the end of the stream each vertex v picks the level
``j_v = max(0, floor(log2(deg(v) / (2Y))))`` and recovers its neighborhood
there; the union of recovered stars, with edge {u, v} weighted
``2^min(j_u, j_v)``, is exactly the subsampled graph that `sample_offline`
computes directly from the final edge set under the same seed.

Layout.  A `StreamState` keeps its (level, vertex) slots as the rows of
blocks, one row per slot.  Slots are lazy: a slot gets a row the first time
an update, a recovery or `sketch_at` touches it, and an untouched slot is
zero, so laziness never changes observable state and `total_buckets` counts
only the slots touched.  What a row holds depends on the sparsity budget k:

* k == n (`dense_slots`): the slot's net vector itself, one row of an
  (S, n) int64 block.  Every desk-scale pool is here, since k = min(n,
  ceil(8Y)) = n, and a vector of n entries is smaller than any sketch of it
  (R * 2k buckets of three words).  A dense vector is linear and recovers
  exactly, so the sketch's random FAILs are the only thing that goes away.
* k < n: a sparse-recovery sketch, one row of each of three (S, R, B)
  blocks `counts`, `id_sums` and `fps`, for R hash rows and B = 2k buckets.

A batch of updates is applied in a few vectorized passes: pair levels for
every update, their expansion into (slot, index, delta) items, then one
`np.add.at` into the dense block, or `sketch.accumulate`, which nets,
hashes and sums the items into the sketch blocks.  Updates are expanded
`UPDATE_CHUNK` at a time and `accumulate` hashes at most
`sketch.WINDOW_CELLS` (item, row) pairs at a time, so a batch needs a few
MB beyond the blocks whatever its length.  The sums are exact: counts and
id sums are added as int64, as `SparseRecoverySketch.update` adds them, and
fingerprints stay reduced mod 2^61 - 1, so a sketch block matches a loop of
scalar updates bit for bit, and the sketch of a dense row (`sketch_at`)
equals the sketch the same updates would have built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .prf import MASK64, leading_ones, leading_ones_array, mix64, prf, prf_array
from .sketch import SketchParams, SparseRecoverySketch, accumulate
from .sparsify import SparsifierParams

_LEVEL_TAG = 0x4C76
_SKETCH_TAG = 0x536B

# updates expanded per engine pass; each makes about four (slot, index,
# delta) items, so the item arrays of one pass stay at a few MB
UPDATE_CHUNK = 1 << 16


class StreamError(ValueError):
    pass


@dataclass(frozen=True)
class StreamUpdate:
    insert: bool
    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise StreamError("stream edges are loop-free")

    @property
    def delta(self) -> int:
        return 1 if self.insert else -1


def update_arrays(updates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, delta) int64 arrays of a sequence of `StreamUpdate`s."""
    rows = [(upd.u, upd.v, 1 if upd.insert else -1) for upd in updates]
    u, v, d = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
    return u, v, d


def pair_level(level_seed: int, u: int, v: int) -> int:
    """Geometric sampling level of the unordered pair {u, v}."""
    lo, hi = (u, v) if u < v else (v, u)
    return leading_ones(prf(level_seed, lo, hi))


def pair_levels(level_seed: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`pair_level` of every pair {u[t], v[t]}, vectorized."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    start = np.uint64(mix64(level_seed & MASK64))
    return leading_ones_array(prf_array(start, np.minimum(u, v), np.maximum(u, v)))


def top_level(n: int) -> int:
    """Highest stored sampling level, ceil(log2 n) and at least 1."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def state_shape(n: int, params: SparsifierParams) -> tuple[int, int, float]:
    """(top level, sparsity budget k, per-sketch failure probability) of a
    `StreamState` over n vertices."""
    k = min(n, max(1, math.ceil(8.0 * params.upsilon_for(n))))
    return top_level(n), k, float(max(n, 2)) ** (-(params.fail_exponent + 3.0))


def dense_slots(n: int, k: int) -> bool:
    """Whether a state keeps its slots as dense vectors over [0, n): exactly
    when the sparsity budget k covers the whole universe, where a sketch
    would summarize a vector smaller than itself."""
    return k == n


def worst_case_bytes(n: int, params: SparsifierParams) -> int:
    """Bytes a `StreamState` holds once every slot is touched, degrees
    included: n int64 per dense slot, or 3 int64 per sketch bucket."""
    levels, k, sketch_p = state_shape(n, params)
    if dense_slots(n, k):
        slot = 8 * n
    else:
        slot = 24 * 2 * k * SketchParams(n, k, sketch_p, 0).rows
    return (levels + 1) * n * slot + 8 * n


def pick_level(deg: float, ups: float, max_level: int) -> int:
    """j_v = max(0, floor(log2(deg / (2Y)))), capped at the top stored level."""
    if deg <= 0:
        return 0
    j = math.floor(math.log2(deg / (2.0 * ups)))
    return min(max(0, j), max_level)


def vertex_levels(deg, ups: float, max_level: int) -> np.ndarray:
    """`pick_level` of every vertex degree, as an int64 array."""
    return np.array([pick_level(float(x), ups, max_level) for x in deg], dtype=np.int64)


class StreamState:
    """Entire memory footprint of the streaming algorithm for one sample.

    Holds n degree counters and (levels+1) x n recovery sketches, each with
    sparsity budget k = min(n, ceil(8Y)) and per-sketch failure probability
    n^-(C+3).  State is linear: it depends only on the net edge multiset.

    The slots live as rows of blocks, one row per slot touched so far (see
    the module docstring); construction allocates no rows.  When k == n
    (`dense_slots`, decided once here and kept in `dense`), a row is the
    slot's net vector itself, one (S, n) int64 block; otherwise it is a
    sketch, three (S, R, B) blocks.  Both give the same `serialize`,
    `total_buckets` and, barring the sketch's random FAILs, the same
    `recover_sparsifier`; `memory_bytes` is what the rows really hold.
    """

    def __init__(self, n: int, params: SparsifierParams, seed: int | None = None):
        if n < 1:
            raise StreamError("need n >= 1")
        self.n = n
        self.params = params
        self.seed = params.seed if seed is None else seed
        self.upsilon = params.upsilon_for(n)
        self.levels, self.k, self.sketch_p = state_shape(n, params)
        self.dense = dense_slots(n, self.k)
        self.deg = np.zeros(n, dtype=np.int64)
        self._level_seed = prf(self.seed, _LEVEL_TAG)
        # slot (level, v) has key level * n + v and sketch seed
        # prf(seed, _SKETCH_TAG, level, v); _row[key] is its block row, or -1
        self._row = np.full((self.levels + 1) * n, -1, dtype=np.int64)
        self._used = 0
        R, B = self._sketch_params(0).rows, 2 * self.k
        self._cells = R * B
        self._seeds = np.zeros(0, dtype=np.uint64)
        # the row payload: a dense vector, or (counts, id_sums, fps) buckets
        if self.dense:
            self._payload = (np.zeros((0, n), dtype=np.int64),)
        else:
            self._payload = (
                np.zeros((0, R, B), dtype=np.int64),
                np.zeros((0, R, B), dtype=np.int64),
                np.zeros((0, R, B), dtype=np.uint64),
            )

    def _sketch_params(self, seed: int) -> SketchParams:
        return SketchParams(self.n, self.k, self.sketch_p, seed)

    def _rows(self, keys: np.ndarray) -> np.ndarray:
        """Block rows of the distinct slot `keys`; new slots get zero rows."""
        rows = self._row[keys]
        fresh = keys[rows < 0]
        if fresh.size:
            self._grow(self._used + fresh.size)
            new = np.arange(self._used, self._used + fresh.size)
            self._row[fresh] = new
            slot_chain = np.uint64(prf(self.seed, _SKETCH_TAG))
            self._seeds[new] = prf_array(slot_chain, fresh // self.n, fresh % self.n)
            self._used += fresh.size
            rows = self._row[keys]
        return rows

    def _grow(self, need: int) -> None:
        """Make room for `need` rows: exactly `need` for a first batch, then
        doubling, capped at every slot.  Zero pages beyond the used rows are
        not touched, so they cost address space, not resident memory."""
        cap = self._seeds.size
        if need <= cap:
            return
        cap = min(self._row.size, max(need, 2 * cap))

        def grown(a):
            out = np.zeros((cap,) + a.shape[1:], dtype=a.dtype)
            out[: self._used] = a[: self._used]
            return out

        self._seeds = grown(self._seeds)
        self._payload = tuple(map(grown, self._payload))

    def sketch_at(self, level: int, v: int) -> SparseRecoverySketch:
        """The sketch of slot (level, v); touches the slot.

        On a sketch state it works on the slot's block rows, sharing memory
        with the block until the block next grows, which only a newly
        touched slot can cause.  On a dense state it is a fresh sketch built
        by `update_many` from the slot's nonzeros: by linearity the same
        sketch, but writes to it do not reach the state.
        """
        if not (0 <= level <= self.levels and 0 <= v < self.n):
            raise StreamError(f"no sketch slot ({level}, {v})")
        row = int(self._rows(np.array([level * self.n + v]))[0])
        sp = self._sketch_params(int(self._seeds[row]))
        if not self.dense:
            return SparseRecoverySketch(sp, tuple(a[row] for a in self._payload))
        vec = self._payload[0][row]
        sk = SparseRecoverySketch(sp)
        idx = np.flatnonzero(vec)
        sk.update_many(idx, vec[idx])
        return sk

    def edge_level(self, u: int, v: int) -> int:
        """Deterministic level of {u, v}; symmetric in its endpoints."""
        if u == v:
            raise StreamError("self-loops have no level")
        return pair_level(self._level_seed, u, v)

    def process(self, upd: StreamUpdate) -> None:
        """Apply one insert/delete: a batch of one."""
        self.apply(*update_arrays([upd]))

    def process_many(self, updates) -> None:
        """Apply a sequence of updates as one batch; by linearity the end
        state is bit-identical to one `process` call per update."""
        self.apply(*update_arrays(updates))

    def apply(self, u, v, delta) -> None:
        """Apply the updates (u[t], v[t], delta[t]) given as int arrays.

        Every pair is checked before anything changes, so a bad pair leaves
        the state as it was.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        delta = np.asarray(delta, dtype=np.int64)
        if not (u.shape == v.shape == delta.shape and u.ndim == 1):
            raise StreamError("u, v and delta must be 1-d arrays of one length")
        bad = np.flatnonzero((u < 0) | (u >= self.n) | (v < 0) | (v >= self.n) | (u == v))
        if bad.size:
            t = int(bad[0])
            raise StreamError(f"update ({u[t]},{v[t]}) out of range or a loop")
        np.add.at(self.deg, u, delta)
        np.add.at(self.deg, v, delta)
        for lo in range(0, u.size, UPDATE_CHUNK):
            hi = lo + UPDATE_CHUNK
            self._accumulate(u[lo:hi], v[lo:hi], delta[lo:hi])

    def _accumulate(self, u, v, delta) -> None:
        """Add a chunk of checked updates to the level sketches."""
        reps = np.minimum(pair_levels(self._level_seed, u, v), self.levels) + 1
        which = np.repeat(np.arange(u.size), reps)
        level = np.arange(which.size) - np.repeat(np.cumsum(reps) - reps, reps)
        a, b, d = u[which], v[which], delta[which]
        # update {a, b} adds index b to slot (level, a) and a to (level, b)
        slots, inverse = np.unique(
            np.concatenate([level * self.n + a, level * self.n + b]), return_inverse=True
        )
        rows = self._rows(slots)[inverse]  # may grow the block: before reading it
        index, d = np.concatenate([b, a]), np.concatenate([d, d])
        if self.dense:
            # a flat view of the contiguous block: writes land in the block
            np.add.at(self._payload[0].reshape(-1), rows * self.n + index, d)
        else:
            accumulate(*self._payload, self._seeds, rows, index, d, self.n)

    def vertex_level(self, v: int) -> int:
        return pick_level(float(self.deg[v]), self.upsilon, self.levels)

    def recover_sparsifier(self) -> Graph | None:
        """Recover the weighted sampled graph, or None on any sketch FAIL.

        The net edge multiset of a valid stream is a simple graph, so every
        recovered entry is 0 or 1; any other entry gives None on both paths.
        A dense state reads the rows at levels j_v and also returns None
        where the sketch's other deterministic rule would: more than k
        nonzeros in a row.
        """
        j = vertex_levels(self.deg, self.upsilon, self.levels)
        if self.dense:
            # touches the slots, as the sketch path's `sketch_at` does, and
            # may grow the block: before reading it
            rows = self._rows(j * self.n + np.arange(self.n))
            vecs = self._payload[0][rows]
            if ((vecs < 0) | (vecs > 1)).any() or (
                np.count_nonzero(vecs, axis=1) > self.k
            ).any():
                return None
            v, u = np.nonzero(vecs)
            keys = np.unique(np.minimum(u, v) * self.n + np.maximum(u, v))
        else:
            keys = set()
            for v in range(self.n):
                neigh = self.sketch_at(int(j[v]), v).recover()
                if neigh is None or any(x != 1 for x in neigh.values()):
                    return None
                keys.update(min(u, v) * self.n + max(u, v) for u in neigh)
            keys = np.array(sorted(keys), dtype=np.int64)
        u, v = np.divmod(keys, self.n)
        return Graph.from_arrays(self.n, u, v, 2.0 ** np.minimum(j[u], j[v]))

    def serialize(self) -> bytes:
        parts = [self.deg.tobytes()]
        for i in range(self.levels + 1):
            for v in range(self.n):
                parts.append(self.sketch_at(i, v).serialize())
        return b"".join(parts)

    # -- space accounting -----------------------------------------------------

    def total_buckets(self) -> int:
        """Buckets of the sketches of the touched slots, dense or not; at
        most `bucket_budget`."""
        return self._used * self._cells

    def memory_bytes(self) -> int:
        """Bytes held by the touched slots' rows and the degree counters."""
        row = sum(a.itemsize * math.prod(a.shape[1:]) for a in self._payload)
        return self._used * row + self.deg.nbytes

    def bucket_budget(self) -> int:
        """Bucket count of the full sketch family: n*(L+1)*2k*R."""
        return self.n * (self.levels + 1) * self._cells


def sample_offline(G: Graph, params: SparsifierParams, seed: int | None = None) -> Graph:
    """The sampled graph computed directly from G with the same PRF draws.

    Oracle for `recover_sparsifier`: identical seed and identical final edge
    set give identical output.  G must be loop-free and unweighted.
    """
    if np.any(G.edge_u == G.edge_v):
        raise StreamError("sample_offline expects a loop-free graph")
    if np.any(G.edge_w != 1.0):
        raise StreamError("sample_offline expects an unweighted graph")
    use_seed = params.seed if seed is None else seed
    ups = params.upsilon_for(max(G.n, 1))
    j = vertex_levels(G.deg, ups, top_level(G.n))
    j_min = np.minimum(j[G.edge_u], j[G.edge_v])
    keep = pair_levels(prf(use_seed, _LEVEL_TAG), G.edge_u, G.edge_v) >= j_min
    u, v, w = G.edge_u[keep], G.edge_v[keep], 2.0 ** j_min[keep]
    by_edge = np.lexsort((w, v, u))
    return Graph.from_arrays(G.n, u[by_edge], v[by_edge], w[by_edge])


# -- stream files --------------------------------------------------------------


def save_stream(n: int, updates, path) -> None:
    """Text format: first line "n", then one "+ u v" or "- u v" per update."""
    with open(path, "w") as f:
        f.write(f"{n}\n")
        for upd in updates:
            op = "+" if upd.insert else "-"
            f.write(f"{op} {upd.u} {upd.v}\n")


def load_stream(path):
    """Read a stream file; a malformed line raises StreamError naming it.

    The first line is n >= 1; every other non-blank line is exactly
    "+ u v" or "- u v" with u != v, both in [0, n).  The stream must keep
    the graph simple: "+" only for an absent edge, "-" only for a present one.
    """
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 1 or not header[0].isdigit() or int(header[0]) < 1:
            raise StreamError(f"{path}:1: expected the vertex count n >= 1")
        n = int(header[0])
        updates = []
        live = set()
        for lineno, line in enumerate(f, start=2):
            parts = line.split()
            if not parts:
                continue
            where = f"{path}:{lineno}"
            if len(parts) != 3 or parts[0] not in ("+", "-"):
                raise StreamError(f"{where}: expected '+ u v' or '- u v', got {line.strip()!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise StreamError(f"{where}: vertex ids must be integers") from None
            if not (0 <= u < n and 0 <= v < n):
                raise StreamError(f"{where}: vertex id out of range [0, {n})")
            if u == v:
                raise StreamError(f"{where}: loop at vertex {u}; stream edges are loop-free")
            insert, pair = parts[0] == "+", u * n + v if u < v else v * n + u
            if insert:
                if pair in live:
                    raise StreamError(f"{where}: + of edge {{{u}, {v}}}, which is present")
                live.add(pair)
            else:
                if pair not in live:
                    raise StreamError(f"{where}: - of edge {{{u}, {v}}}, which is absent")
                live.remove(pair)
            updates.append(StreamUpdate(insert, u, v))
    return n, updates
