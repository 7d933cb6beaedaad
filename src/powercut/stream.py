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
computes directly from the final edge set under the same seed.  A vertex of
a simple graph has degree at most n - 1, so j_v never exceeds the level cap
L* = floor(log2((n - 1) / 2Y)) (`level_cap`, at most ceil(log2 n)): a state
keeps levels 0..L* only, and every recovery caps j_v there too.

Layout.  What a `StreamState` keeps depends on the sparsity budget k:

* k == n (`dense_slots`): a `NetGraph`, the net counts of the live pairs,
  which stream pools hold whatever k is (offline pools hold a graph's
  merged pairs, `NetGraph.of_graph`).  Slot (i, v) is v's live pairs of
  level >= i, so recovering the slots (j_v, v) is `sample_offline`'s draw
  (`_sampled_graph`) from the live pairs, with no random FAILs.
* k < n: a sparse-recovery sketch per slot, one row of each of three
  (S, R, B) blocks `counts`, `id_sums` and `fps`, for R hash rows
  (`SketchParams.rows`, from the pair-collision bound) and B = 2k buckets.
  Slots are lazy: a slot gets a row the first time an update touches it.
  Reads (`recover_sparsifier`, `sketch_at`, `serialize`) allocate nothing:
  an untouched slot reads as the zero sketch under its seed, so laziness
  never changes observable state.

Input.  A stream is one (N, 3) int64 array of (u, v, delta) rows, delta +1
an insert and -1 a delete: `load_stream` and `gen_stream` return it,
`save_stream` writes it, and `process_many`, the one checked entry, applies
it as one batch, which by linearity a loop of its rows equals.

A net graph nets a batch into its live pairs with one `np.unique`.  A
sketch state expands a batch into (slot, index, delta) items by pair level,
and `sketch.accumulate` nets, hashes and sums them into the blocks, taking
updates `UPDATE_CHUNK` and (item, row) pairs `sketch.WINDOW_CELLS` at a
time, so a batch needs a few MB beyond the blocks whatever its length.  The
sums are exact: counts and id sums are added as int64, as
`SparseRecoverySketch.update` adds them, and fingerprints stay reduced mod
2^61 - 1, so a sketch block matches a loop of scalar updates bit for bit,
and the sketch a dense state builds for a slot (`sketch_at`) equals the
sketch the same updates would have built.  A sketch state recovers the n
slots (j_v, v) by `sketch.peel` in groups of at most `sketch.WINDOW_CELLS`
cells, and hands the pairs it peels to the same rule.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, parse_count
from .prf import MASK64, leading_ones_array, mix64, prf, prf_array
from .sketch import (WINDOW_CELLS, SketchParams, SparseRecoverySketch, accumulate, int_array,
                     peel, sketch_fp_bases, sketch_row_seeds)
from .sparsify import FAIL_EXPONENT, SparsifierParams

_LEVEL_TAG = 0x4C76
_SKETCH_TAG = 0x536B

# updates expanded per engine pass; each makes about four (slot, index,
# delta) items, so the item arrays of one pass stay at a few MB
UPDATE_CHUNK = 1 << 16

# most bytes a `NetGraph` (8n and 16 per pair, so n < 2^28 and a key min*n +
# max fits in int64) or a sketch state's degrees and slot rows may hold
POOL_BYTE_CAP = 2 << 30


class StreamError(ValueError):
    pass


class PoolTooLarge(ValueError):
    """A net graph or sketch state that would need more than `POOL_BYTE_CAP` bytes."""


def _check_cap(what: str, need: int) -> None:
    if need > POOL_BYTE_CAP:
        raise PoolTooLarge(f"{what} needs {need / 2**30:.3g} GiB, "
                           f"above POOL_BYTE_CAP = {POOL_BYTE_CAP:,}")


def stream_rows(updates) -> np.ndarray:
    """`updates` as an (N, 3) int64 array of (u, v, delta) rows, without a
    copy when it is one already; raises `StreamError` unless the rows hold
    three integers each (an empty sequence is an empty batch)."""
    rows = int_array(updates, StreamError)
    if rows.shape == (0,):
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise StreamError(f"a stream is (u, v, delta) rows, got shape {rows.shape}")
    return rows


def pair_levels(level_seed: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Geometric sampling level of every unordered pair {u[t], v[t]}: the
    leading ones of `prf(level_seed, min(u, v), max(u, v))`; symmetric in
    the endpoints, so the pair belongs to level graph i iff it is >= i."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    start = np.uint64(mix64(level_seed & MASK64))
    return leading_ones_array(prf_array(start, np.minimum(u, v), np.maximum(u, v)))


def level_cap(n: int, ups: float) -> int:
    """Highest sampling level a recovery reads over n vertices at
    oversampling factor Y: L* = floor(log2((n - 1) / 2Y)), the level
    `pick_level` gives a vertex of degree n - 1 (0 when n - 1 <= 2Y), and at
    most ceil(log2 n).  Every vertex of a simple graph has j_v <= L*, so
    capping j_v there changes no draw."""
    top = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    return pick_level(n - 1, ups, top)


def state_shape(n: int, params: SparsifierParams) -> tuple[int, int, float]:
    """(level cap L*, sparsity budget k, per-sketch failure probability) of
    a `StreamState` over n vertices: `level_cap`, k = min(n, ceil(8Y)) and
    n^-(C+3) = n^-4, with C = `sparsify.FAIL_EXPONENT`."""
    ups = params.upsilon_for(n)
    k = min(n, max(1, math.ceil(8.0 * ups)))
    return level_cap(n, ups), k, float(max(n, 2)) ** (-(FAIL_EXPONENT + 3.0))


def dense_slots(n: int, k: int) -> bool:
    """Whether a state keeps its slots as dense vectors over [0, n): exactly
    when the sparsity budget k covers the whole universe, where a sketch
    would summarize a vector smaller than itself."""
    return k == n


def pick_level(deg: float, ups: float, max_level: int) -> int:
    """j_v = max(0, floor(log2(deg / (2Y)))), capped at `max_level`."""
    x = deg / (2.0 * ups)
    if x < 1:  # a degree of 0 too, or one so small that the quotient underflows
        return 0
    return math.floor(min(math.log2(x), max_level))


def vertex_levels(deg, ups: float, max_level: int) -> np.ndarray:
    """`pick_level` of every vertex degree, once per distinct degree, as int64."""
    values, at = np.unique(np.asarray(deg), return_inverse=True)
    return np.array([pick_level(float(x), ups, max_level) for x in values], dtype=np.int64)[at]


def _checked_update(deg: np.ndarray, updates):
    """The (u, v, delta) columns of `updates` once every row is checked, with
    their degree changes added to `deg`; a non-integer row or a bad pair
    raises `StreamError` before anything changes."""
    n = deg.size
    u, v, delta = stream_rows(updates).T
    bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v))
    if bad.size:
        t = int(bad[0])
        raise StreamError(f"update ({u[t]},{v[t]}) out of range or a loop")
    np.add.at(deg, u, delta)
    np.add.at(deg, v, delta)
    return u, v, delta


class NetGraph:
    """The net graph of a stream or a graph: n degrees, the sorted int64 `keys`
    min*n + max of its pairs, and a stream's int64 net `counts` (live pairs:
    count not 0) or a graph's float64 `weights` (`of_graph`).  It depends on
    no seed, so samples share it, each under its own params.  Constructors
    and batches (against the live pairs plus its rows, which a merge holds)
    check `POOL_BYTE_CAP` before anything is allocated or changed."""

    def __init__(self, n: int):
        if n < 1:
            raise StreamError("need n >= 1")
        self.n = n
        self._check_bytes(0)
        self.deg = np.zeros(n, dtype=np.int64)
        self.keys = self.counts = np.zeros(0, dtype=np.int64)  # replaced, never written
        self.weights = None

    @classmethod
    def of_graph(cls, G: Graph) -> "NetGraph":
        """G's pairs, parallel edges merged into their summed weight and a
        loop as the pair (v, v), over `G.deg`; it takes no stream rows."""
        net = cls.__new__(cls)
        net.n, net.deg, net.counts = G.n, G.deg, None
        net._check_bytes(G.num_edges)
        net.keys, at = np.unique(G.edge_u * G.n + G.edge_v, return_inverse=True)
        net.weights = np.bincount(at, G.edge_w, minlength=net.keys.size)
        return net

    def _check_bytes(self, pairs: int) -> None:
        _check_cap(f"a net graph over {self.n} vertices and {pairs:,} pairs",
                   8 * self.n + 16 * pairs)

    def process_many(self, updates) -> None:
        """Apply (u, v, delta) rows as one batch; see `StreamState.process_many`."""
        if self.counts is None:
            raise StreamError("a graph's net graph takes no stream rows")
        rows = stream_rows(updates)
        self._check_bytes(self.keys.size + len(rows))
        u, v, delta = _checked_update(self.deg, rows)
        new = np.minimum(u, v) * self.n + np.maximum(u, v)
        keys, at = np.unique(np.concatenate([self.keys, new]), return_inverse=True)
        counts = np.zeros(keys.size, dtype=np.int64)
        np.add.at(counts, at, np.concatenate([self.counts, delta]))
        self.keys, self.counts = keys[counts != 0], counts[counts != 0]

    def recover_sparsifier(self, params: SparsifierParams) -> Graph | None:
        """The sampled graph under `params`, or None if a kept pair's count is not 1."""
        u, v = np.divmod(self.keys, self.n)
        return _sampled_graph(self.n, params, self.deg, u, v, self.counts, self.weights)

    def memory_bytes(self) -> int:
        held = (self.deg, self.keys, self.counts, self.weights)
        return sum(a.nbytes for a in held if a is not None)


class StreamState:
    """Entire memory footprint of the streaming algorithm for one sample.

    Holds n degree counters and (levels+1) x n slots (i, v) for i in
    0..`levels`, v's net adjacency over the pairs of level >= i, with the
    level cap, sparsity budget k and per-sketch failure probability of
    `state_shape`.  State is linear: it depends only on the net edge
    multiset.  Its randomness, pair levels and slot sketch seeds, derives
    from `params.seed` alone.

    When k == n (`dense_slots`, decided once here and kept in `dense`), a
    `NetGraph` holds every slot, else sketch rows do (see the module
    docstring).  Both give the same `serialize` and, barring the sketch's
    random FAILs, the same `recover_sparsifier`.
    """

    def __init__(self, n: int, params: SparsifierParams):
        if n < 1:
            raise StreamError("need n >= 1")
        self.n, self.params, self.seed = n, params, params.seed
        self.upsilon = params.upsilon_for(n)
        self.levels, self.k, self.sketch_p = state_shape(n, params)
        self.dense = dense_slots(n, self.k)
        self._level_seed = prf(self.seed, _LEVEL_TAG)
        if self.dense:
            self._net = NetGraph(n)
            self.deg = self._net.deg
            return
        _check_cap(f"a sketch state over {n} vertices and {self.levels + 1} levels",
                   8 * n + 8 * (self.levels + 1) * n)
        self.deg = np.zeros(n, dtype=np.int64)
        R, B = self._sketch_params(0).rows, 2 * self.k
        # slot (level, v) has key level * n + v and sketch seed
        # prf(seed, _SKETCH_TAG, level, v); _row[key] is its block row, or -1
        self._row = np.full((self.levels + 1) * n, -1, dtype=np.int64)
        self._used = 0
        self._seeds = np.zeros(0, dtype=np.uint64)
        # the (counts, id_sums, fps) buckets
        self._payload = tuple(np.zeros((0, R, B), dtype=t) for t in (np.int64, np.int64, np.uint64))

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
        """A copy of the sketch of slot (level, v): a sketch state's block
        rows (the zero sketch, with no row allocated, for a slot no update
        touched), or by linearity the same sketch built from a dense state's
        live pairs at v of level >= `level`.  Writes to it miss the state."""
        if not (0 <= level <= self.levels and 0 <= v < self.n):
            raise StreamError(f"no sketch slot ({level}, {v})")
        row = -1 if self.dense else int(self._row[level * self.n + v])
        if row >= 0:
            sp = self._sketch_params(int(self._seeds[row]))
            return SparseRecoverySketch(sp, tuple(a[row].copy() for a in self._payload))
        sk = SparseRecoverySketch(self._sketch_params(prf(self.seed, _SKETCH_TAG, level, v)))
        if self.dense:
            a, b = np.divmod(self._net.keys, self.n)
            at = (a == v) | (b == v)
            idx = a[at] + b[at] - v  # the other end, ascending as in the keys
            keep = pair_levels(self._level_seed, v, idx) >= level
            sk.update_many(idx[keep], self._net.counts[at][keep])
        return sk

    def process(self, row) -> None:
        """Apply one (u, v, delta) row: a batch of one."""
        self.process_many([row])

    def process_many(self, updates) -> None:
        """Apply (u, v, delta) rows, an (N, 3) int array, as one batch; by
        linearity the end state is bit-identical to one `process` per row.

        Every row is checked before anything changes, so a non-integer or
        a bad pair leaves the state as it was.  `updates` is only read.
        """
        if self.dense:
            self._net.process_many(updates)
            return
        u, v, delta = _checked_update(self.deg, updates)
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
        accumulate(*self._payload, self._seeds, rows, index, d, self.n)

    def recover_sparsifier(self) -> Graph | None:
        """Recover the weighted sampled graph, or None on any FAIL.

        The net edge multiset of a valid stream is a simple graph, so an
        entry other than 1, a peel FAIL or more than k entries in a slot (the
        k-sparse contract) gives None.
        """
        if self.dense:
            return self._net.recover_sparsifier(self.params)
        j = vertex_levels(self.deg, self.upsilon, self.levels)
        rows = self._row[j * self.n + np.arange(self.n)]
        # an untouched slot (j_v, v) is the zero sketch, which peels to nothing
        verts = np.flatnonzero(rows >= 0)
        rows = rows[verts]
        R, B = self._payload[0].shape[1:]
        group = max(1, WINDOW_CELLS // (R * B))
        found, fail = [(np.zeros(0, dtype=np.int64),) * 3], False
        for a in range(0, verts.size, group):
            g = rows[a : a + group]  # fancy indexing: the peel gets copies
            slot, index, value, failed = peel(*(block[g] for block in self._payload),
                                              sketch_row_seeds(self._seeds[g], R),
                                              sketch_fp_bases(self._seeds[g]), self.n)
            found.append((verts[slot + a], index, value))
            fail |= failed.any()
        v, u, x = map(np.concatenate, zip(*found))
        if fail or (np.bincount(v, minlength=self.n) > self.k).any():
            return None
        # a pair peeled from both endpoints' slots holds one net count; every
        # pair peeled from slot (j_v, v) has level >= j_v, so the rule keeps it
        keys, first = np.unique(np.minimum(u, v) * self.n + np.maximum(u, v), return_index=True)
        u, v = np.divmod(keys, self.n)
        return _sampled_graph(self.n, self.params, self.deg, u, v, x[first])

    def serialize(self) -> bytes:
        parts = [self.deg.tobytes()]
        for i in range(self.levels + 1):
            for v in range(self.n):
                parts.append(self.sketch_at(i, v).serialize())
        return b"".join(parts)

    # -- space accounting -----------------------------------------------------

    def memory_bytes(self) -> int:
        """Bytes held by the live pairs or the sketch rows, and the degrees."""
        if self.dense:
            return self._net.memory_bytes()
        row = sum(a.itemsize * math.prod(a.shape[1:]) for a in self._payload)
        return self._used * row + self.deg.nbytes


def _sampled_graph(n: int, params: SparsifierParams, deg, u, v, count, weight=None):
    """The pairs {u[t], v[t]} (u <= v, sorted) of net counts `count[t]` (None:
    a graph's, which count once) and weights `weight[t]` (None: 1) kept when
    their level is >= min(j_u, j_v) over degrees `deg`, at weight w * 2^min,
    or None when a kept pair's count is not 1.  Every draw ends here."""
    ups = params.upsilon_for(max(n, 1))
    j = vertex_levels(deg, ups, level_cap(n, ups))
    j_min = np.minimum(j[u], j[v])
    # every pair level is >= 0: a pair at j_min = 0 is kept without its PRF
    keep = j_min == 0
    up = np.flatnonzero(~keep)
    keep[up] = pair_levels(prf(params.seed, _LEVEL_TAG), u[up], v[up]) >= j_min[up]
    if count is not None and (count[keep] != 1).any():
        return None
    w = 2.0 ** j_min[keep]
    return Graph.from_arrays(n, u[keep], v[keep], w if weight is None else weight[keep] * w)


def sample_offline(G: Graph, params: SparsifierParams) -> Graph:
    """The sampled graph computed directly from G with the same PRF draws.

    Oracle for `recover_sparsifier`: a `StreamState` with the same params,
    `params.seed` included, fed a stream whose final edge set is G recovers
    this graph, barring a sketch FAIL.  G must be loop-free and unweighted.
    """
    if np.any(G.edge_u == G.edge_v):
        raise StreamError("sample_offline expects a loop-free graph")
    if np.any(G.edge_w != 1.0):
        raise StreamError("sample_offline expects an unweighted graph")
    # every edge counts once: its unit weight
    e = np.lexsort((G.edge_v, G.edge_u))
    return _sampled_graph(G.n, params, G.deg, G.edge_u[e], G.edge_v[e], G.edge_w[e])


# -- stream files --------------------------------------------------------------


def save_stream(n: int, updates, path) -> None:
    """Text format: first line "n", then "+ u v" or "- u v" per (u, v, delta)
    row; a delta other than +1 or -1 has no line and raises `StreamError`."""
    rows = stream_rows(updates)
    if (np.abs(rows[:, 2]) != 1).any():
        raise StreamError("a stream file holds deltas of +1 and -1 only")
    with open(path, "w") as f:
        f.write(f"{n}\n")
        f.writelines(f"{'+' if d > 0 else '-'} {u} {v}\n" for u, v, d in rows.tolist())


def load_stream(path) -> tuple[int, np.ndarray]:
    """Read a stream file into (n, (N, 3) int64 rows); a malformed line
    raises StreamError naming it.

    The first line is n >= 1; every other non-blank line is exactly
    "+ u v" or "- u v" with u != v, both in [0, n).  The stream must keep
    the graph simple: "+" only for an absent edge, "-" only for a present one.
    """
    with open(path) as f:
        try:
            (n,) = map(parse_count, f.readline().split())
        except ValueError:
            n = 0
        if n < 1:
            raise StreamError(f"{path}:1: expected the vertex count n >= 1")
        rows = []
        live = set()

        def bad(msg):
            return StreamError(f"{path}:{lineno}: {msg}")

        for lineno, line in enumerate(f, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3 or parts[0] not in ("+", "-"):
                raise bad(f"expected '+ u v' or '- u v', got {line.strip()!r}")
            try:
                u, v = parse_count(parts[1]), parse_count(parts[2])
            except ValueError:
                raise bad("vertex ids must be nonnegative integers") from None
            if not (u < n and v < n):
                raise bad(f"vertex id out of range [0, {n})")
            if u == v:
                raise bad(f"loop at vertex {u}; stream edges are loop-free")
            insert, pair = parts[0] == "+", u * n + v if u < v else v * n + u
            if insert == (pair in live):
                raise bad(f"{parts[0]} of edge {{{u}, {v}}}, which is "
                          + ("present" if insert else "absent"))
            if insert:
                live.add(pair)
            else:
                live.remove(pair)
            rows.append((u, v, 1 if insert else -1))
    return n, np.array(rows, dtype=np.int64).reshape(-1, 3)
