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

Layout.  A `StreamState` stores its (level, vertex) sketches as the rows of
one block per array: `counts`, `id_sums` and `fps`, each of shape (S, R, B)
for S slots, R hash rows and B = 2k buckets per row.  Slots are lazy: a slot
gets a row the first time an update or `sketch_at` touches it, and an
untouched slot is the zero sketch, so laziness never changes observable
state and `total_buckets` counts only rows handed out.  A batch of updates
is applied in a few vectorized passes: pair levels for every update, their
expansion into (slot, index, delta) items, then `sketch.accumulate`, which
nets, hashes and sums the items into the block.  Updates are expanded
`UPDATE_CHUNK` at a time and `accumulate` hashes at most
`sketch.WINDOW_CELLS` (item, row) pairs at a time, so a batch needs a few
MB beyond the block whatever its length.  The sums are exact: counts and
id sums are added as int64, as `SparseRecoverySketch.update` adds them, and
fingerprints stay reduced mod 2^61 - 1, so the block matches a loop of
scalar updates bit for bit.
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

    The sketches live as rows of (S, R, B) blocks, one row per slot touched
    so far (see the module docstring); construction allocates no rows.
    """

    def __init__(self, n: int, params: SparsifierParams, seed: int | None = None):
        if n < 1:
            raise StreamError("need n >= 1")
        self.n = n
        self.params = params
        self.seed = params.seed if seed is None else seed
        self.upsilon = params.upsilon_for(n)
        self.levels = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        self.k = min(n, max(1, math.ceil(8.0 * self.upsilon)))
        self.sketch_p = float(max(n, 2)) ** (-(params.fail_exponent + 3.0))
        self.deg = np.zeros(n, dtype=np.int64)
        self._level_seed = prf(self.seed, _LEVEL_TAG)
        # slot (level, v) has key level * n + v and sketch seed
        # prf(seed, _SKETCH_TAG, level, v); _row[key] is its block row, or -1
        self._row = np.full((self.levels + 1) * n, -1, dtype=np.int64)
        self._used = 0
        R, B = self._sketch_params(0).rows, 2 * self.k
        self._seeds = np.zeros(0, dtype=np.uint64)
        self._counts = np.zeros((0, R, B), dtype=np.int64)
        self._id_sums = np.zeros((0, R, B), dtype=np.int64)
        self._fps = np.zeros((0, R, B), dtype=np.uint64)

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

        self._seeds, self._counts, self._id_sums, self._fps = map(
            grown, (self._seeds, self._counts, self._id_sums, self._fps)
        )

    def sketch_at(self, level: int, v: int) -> SparseRecoverySketch:
        """The sketch of slot (level, v), over its block rows.

        It shares memory with the block until the block next grows, which
        only a newly touched slot can cause.
        """
        if not (0 <= level <= self.levels and 0 <= v < self.n):
            raise StreamError(f"no sketch slot ({level}, {v})")
        row = int(self._rows(np.array([level * self.n + v]))[0])
        return SparseRecoverySketch(
            self._sketch_params(int(self._seeds[row])),
            (self._counts[row], self._id_sums[row], self._fps[row]),
        )

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
        accumulate(
            self._counts, self._id_sums, self._fps, self._seeds,
            rows, np.concatenate([b, a]), np.concatenate([d, d]), self.n,
        )

    def vertex_level(self, v: int) -> int:
        return pick_level(float(self.deg[v]), self.upsilon, self.levels)

    def recover_sparsifier(self) -> Graph | None:
        """Recover the weighted sampled graph, or None on any sketch FAIL."""
        j = vertex_levels(self.deg, self.upsilon, self.levels)
        keys = set()
        for v in range(self.n):
            neigh = self.sketch_at(int(j[v]), v).recover()
            if neigh is None:
                return None
            keys.update((u, v) if u < v else (v, u) for u in neigh)
        u, v = np.array(sorted(keys), dtype=np.int64).reshape(-1, 2).T
        return Graph.from_arrays(self.n, u, v, 2.0 ** np.minimum(j[u], j[v]))

    def serialize(self) -> bytes:
        parts = [self.deg.tobytes()]
        for i in range(self.levels + 1):
            for v in range(self.n):
                parts.append(self.sketch_at(i, v).serialize())
        return b"".join(parts)

    # -- space accounting -----------------------------------------------------

    def total_buckets(self) -> int:
        """Buckets actually materialized; at most `bucket_budget`."""
        R, B = self._counts.shape[1:]
        return self._used * R * B

    def memory_bytes(self) -> int:
        # 3 arrays of 8 bytes per bucket + the degree counters
        return self.total_buckets() * 24 + self.deg.nbytes

    def bucket_budget(self) -> int:
        """Bucket count of the full sketch family: n*(L+1)*2k*R."""
        rows = SketchParams(self.n, self.k, self.sketch_p, 0).rows
        return self.n * (self.levels + 1) * 2 * self.k * rows


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
    max_level = max(1, math.ceil(math.log2(G.n))) if G.n > 1 else 1
    j = vertex_levels(G.deg, ups, max_level)
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
    "+ u v" or "- u v" with u != v, both in [0, n).
    """
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 1 or not header[0].isdigit() or int(header[0]) < 1:
            raise StreamError(f"{path}:1: expected the vertex count n >= 1")
        n = int(header[0])
        updates = []
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
            updates.append(StreamUpdate(parts[0] == "+", u, v))
    return n, updates
