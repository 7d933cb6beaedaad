"""Linear k-sparse exact-recovery sketch over integer vectors.

The sketch summarizes a vector x in Z^n under a stream of +-1 updates.  If
the net vector has at most k nonzero entries, `recover` returns it exactly
with high probability; otherwise it almost always reports FAIL (returned as
None).  It never returns a wrong vector except on a fingerprint collision,
which happens with probability ~ n / 2^61 per check.

Layout: R = ceil(2 * log2(1/p)) hash rows of 2k buckets each.  A bucket
accumulates (count, id_sum, fingerprint) where the fingerprint lives in the
prime field mod 2^61 - 1 and accumulates value * r^index for a seeded field
element r.  State is linear in the update stream, so sketches with equal
parameters and seed can be merged bucket-wise.
Sketches of one shape stack into (S, R, B) blocks: `accumulate` adds items
to a block and `peel` recovers all its sketches at once, both through
`_add_cells`; `update_many` and `recover` run them on a block of one.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .prf import MASK64, mix64, mix64_array, prf, prf_array

FIELD_PRIME = (1 << 61) - 1

# rows per sketch: R = ceil(ROW_CONSTANT * log2(1/p)); calibrated by test
ROW_CONSTANT = 2.0

_ROW_TAG = 0x526F77
_FP_TAG = 0x467050


class SketchError(ValueError):
    pass


@dataclass(frozen=True)
class SketchParams:
    universe_size: int
    sparsity_budget: int
    failure_prob: float
    seed: int

    def __post_init__(self):
        if not (1 <= self.sparsity_budget <= self.universe_size):
            raise SketchError("need 1 <= k <= n")
        if not (0.0 < self.failure_prob < 1.0):
            raise SketchError("need p in (0, 1)")

    @property
    def rows(self) -> int:
        return math.ceil(ROW_CONSTANT * math.log2(1.0 / self.failure_prob))

    @property
    def buckets_per_row(self) -> int:
        return 2 * self.sparsity_budget


_LO30 = np.uint64((1 << 30) - 1)
_LO31 = np.uint64((1 << 31) - 1)
_PRIME = np.uint64(FIELD_PRIME)

# (item, hash row) pairs per window of `accumulate`: bounds its hash and
# bincount temporaries to a few MB whatever the batch size
WINDOW_CELLS = 1 << 16


def int_array(values, error=SketchError) -> np.ndarray:
    """`values` as an int64 array; raises `error` unless they are integers
    (an empty sequence passes)."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "biu":
        raise error(f"expected integers, got {a.dtype} values")
    return a.astype(np.int64, copy=False)


def sketch_row_seeds(seeds: np.ndarray, rows: int) -> np.ndarray:
    """(S, R) hash-row seeds `prf(seed, _ROW_TAG, r)` of S sketch seeds."""
    return prf_array(mix64_array(seeds)[:, None], _ROW_TAG, np.arange(rows))


def sketch_fp_bases(seeds: np.ndarray) -> np.ndarray:
    """Fingerprint field element r of each sketch seed, away from 0 and 1."""
    return prf_array(mix64_array(seeds), _FP_TAG) % np.uint64(FIELD_PRIME - 3) + np.uint64(2)


def bucket_hash(row_seeds: np.ndarray, index, buckets: int) -> np.ndarray:
    """Bucket of every index in every hash row, `prf(row_seed, index) %
    buckets`: (..., R) row seeds and (...) indices give (..., R) buckets.

    `index` is an int array, or one Python int, as `update` passes it; the
    int is mixed by the scalar `mix64`, which costs less than a numpy call.
    """
    if isinstance(index, int):
        mixed = np.uint64(mix64(index))
    else:
        mixed = mix64_array(index.astype(np.uint64))[..., None]
    return mix64_array(row_seeds ^ mixed) % np.uint64(buckets)


def field_reduce(x: np.ndarray) -> np.ndarray:
    """x mod 2^61 - 1 for any uint64 array: fold the bits above 61 back in
    (2^61 = 1 mod p), then subtract p once where needed.  For x < p,
    x - p wraps above x, so the minimum picks the reduced value."""
    x = (x & _PRIME) + (x >> np.uint64(61))
    return np.minimum(x, x - _PRIME)


def field_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b mod 2^61 - 1, elementwise over uint64 arrays of field elements.

    Split each factor into a 30-bit high and a 31-bit low half.  With
    2^61 = 1 and 2^62 = 2 mod p, the four partial products fold into a sum
    below 2^64, so uint64 arithmetic never wraps.
    """
    a1, a0 = a >> np.uint64(31), a & _LO31
    b1, b0 = b >> np.uint64(31), b & _LO31
    mid = a1 * b0 + a0 * b1  # < 2^62; mid * 2^31 = (mid >> 30) + (mid & LO30) * 2^31
    total = (
        ((a1 * b1) << np.uint64(1))
        + (mid >> np.uint64(30))
        + ((mid & _LO30) << np.uint64(31))
        + a0 * b0
    )
    return field_reduce(total)


def field_pow(base: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """base ** exp mod 2^61 - 1, elementwise; `exp` holds nonnegative ints."""
    out = np.ones(base.shape, dtype=np.uint64)
    exp = np.asarray(exp, dtype=np.int64)
    for bit in range(int(exp.max(initial=0)).bit_length()):
        if bit:
            base = field_mul(base, base)
        out = np.where((exp >> bit) & 1 == 1, field_mul(out, base), out)
    return out


def _net(key: np.ndarray, delta: np.ndarray):
    """The distinct keys, sorted, with their nonzero sums of `delta`."""
    order = np.argsort(key, kind="stable")
    key, delta = key[order], delta[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    net = np.add.reduceat(delta, np.flatnonzero(first))
    live = net != 0
    return key[first][live], net[live]


def _add_cells(counts, id_sums, fps, slot, row_seeds, index, delta, incs) -> None:
    """Add item t, in every hash row of the sketch in block row `slot[t]`
    (row seeds `row_seeds[t]`): `delta[t]` to its bucket's count,
    `delta[t] * index[t]` to its id sum and `incs[t]` < 2^61, taken mod p,
    to its fingerprint.  Counts and id sums are added as int64, as `update`
    adds them; fingerprints are summed per distinct cell with a float64
    bincount of their 31-bit and 30-bit halves, exact because callers add
    at most `WINDOW_CELLS` (item, row) pairs, so sums stay below 2^47.
    """
    R, B = counts.shape[1:]
    # flat views of the C-contiguous blocks: writes through them land in the blocks
    counts_flat, id_sums_flat, fps_flat = (a.reshape(-1) for a in (counts, id_sums, fps))
    bucket = bucket_hash(row_seeds, index, B).astype(np.int64)
    cell = ((slot[:, None] * R + np.arange(R)) * B + bucket).ravel()
    np.add.at(counts_flat, cell, np.repeat(delta, R))
    np.add.at(id_sums_flat, cell, np.repeat(delta * index, R))
    cells, inverse = np.unique(cell, return_inverse=True)
    incs = np.repeat(incs, R)
    lo, hi = (
        np.bincount(inverse, weights=w, minlength=cells.size).astype(np.uint64)
        for w in (incs & _LO31, incs >> np.uint64(31))
    )
    # hi * 2^31 = (hi >> 30) + (hi & LO30) * 2^31 mod p; with the old value
    # below p < 2^61 the sum stays below 2^63
    fps_flat[cells] = field_reduce(
        fps_flat[cells] + lo + (hi >> np.uint64(30)) + ((hi & _LO30) << np.uint64(31))
    )


def accumulate(counts, id_sums, fps, seeds, slot, index, delta, universe: int) -> None:
    """Add items (slot[t], index[t], delta[t]) into a block of stacked sketches.

    `counts`, `id_sums` and `fps` are C-contiguous (S, R, B) arrays, changed
    in place; row s holds the sketch with seed `seeds[s]` over indices
    [0, universe).  The end state is that of one `update(index[t], delta[t])`
    per item on the sketch of its slot, bit for bit: the sketch is linear
    and stays reduced mod p.  Items are netted per (slot, index) first, so
    cancelled updates cost nothing.  The rest are hashed and added by
    `_add_cells` in windows of at most `WINDOW_CELLS` (item, row) pairs.
    """
    R = counts.shape[1]
    if not all(a.flags.c_contiguous for a in (counts, id_sums, fps)):
        raise SketchError("sketch arrays must be C-contiguous")
    key = np.asarray(slot, dtype=np.int64) * universe + np.asarray(index, dtype=np.int64)
    key, net = _net(key, np.asarray(delta, dtype=np.int64))
    if key.size == 0:  # no items, or every item cancelled
        return
    slot, index = np.divmod(key, universe)
    starts = np.r_[True, slot[1:] != slot[:-1]]
    rank = np.cumsum(starts) - 1  # ordinal of each item's slot
    slots = slot[starts]
    step = max(1, WINDOW_CELLS // R)
    for a in range(0, key.size, step):
        b = min(key.size, a + step)
        # hash rows and field elements of the window's slots, then per item
        seeds_w = seeds[slots[rank[a] : rank[b - 1] + 1]]
        local = rank[a:b] - rank[a]
        x, d = index[a:b], net[a:b]
        incs = field_mul(
            (d % FIELD_PRIME).astype(np.uint64), field_pow(sketch_fp_bases(seeds_w)[local], x)
        )
        _add_cells(
            counts, id_sums, fps, slot[a:b], sketch_row_seeds(seeds_w, R)[local], x, d, incs
        )


def peel(counts, id_sums, fps, row_seeds, fp_bases, universe: int):
    """Peel every sketch of a block at once; returns the nonzero net
    entries (slot, index, value), sorted, and an (S,) FAIL flag: True where
    a residual is left.

    The C-contiguous (S, R, B) arrays are changed, so pass copies; row s
    has hash-row seeds `row_seeds[s]` and fingerprint base `fp_bases[s]`.
    Each round runs the one-sketch rule in every slot at once: a nonzero
    cell is pure when its id sum is its count times a candidate in
    [0, universe) and its count is in [-1, universe]; the first pure cell of
    each (slot, candidate) is accepted if its fingerprint is
    count * r^candidate; the accepted items are subtracted.  A slot whose
    round accepts nothing stays as it is, so the rounds stop when no slot
    accepts an item, or after universe + 2.
    """
    R, B = counts.shape[1:]
    step = max(1, WINDOW_CELLS // R)
    # flat views: cell r * B + b of slot s is at (s * R + r) * B + b
    counts_flat, ids_flat, fps_flat = (a.reshape(-1) for a in (counts, id_sums, fps))
    found = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))]
    for _ in range(universe + 2):
        cell = np.flatnonzero(counts_flat)
        if cell.size == 0:
            break
        slot, c, s = cell // (R * B), counts_flat[cell], ids_flat[cell]
        cand = s // c
        pure = np.flatnonzero(
            (s == cand * c) & (cand >= 0) & (cand < universe) & (c >= -1) & (c <= universe))
        # cells come in row-major order, so np.unique keeps the first pure
        # cell of every (slot, candidate)
        first = pure[np.unique(slot[pure] * universe + cand[pure], return_index=True)[1]]
        cell, slot, i, v = cell[first], slot[first], cand[first], c[first]
        fp = np.array([x % FIELD_PRIME * pow(r, j, FIELD_PRIME) % FIELD_PRIME for x, r, j in
                       zip(v.tolist(), fp_bases[slot].tolist(), i.tolist())], dtype=np.uint64)
        ok = fps_flat[cell] == fp
        if not ok.any():
            break
        slot, i, v = slot[ok], i[ok], v[ok]
        # subtracting v * r^i adds p - fp, below 2^61 as `_add_cells` needs
        decs = _PRIME - fp[ok]
        for a in range(0, slot.size, step):
            w = slice(a, a + step)
            _add_cells(counts, id_sums, fps, slot[w], row_seeds[slot[w]], i[w], -v[w], decs[w])
        found.append((slot * universe + i, v))
    key, value = _net(*map(np.concatenate, zip(*found)))
    slot, index = np.divmod(key, universe)
    fail = counts.any(axis=(1, 2)) | id_sums.any(axis=(1, 2)) | fps.any(axis=(1, 2))
    return slot, index, value, fail


class SparseRecoverySketch:
    """One sketch: (R, 2k) arrays of counts, id sums and fingerprints.

    `arrays`, when given, is the (counts, id_sums, fps) triple to work on,
    such as the rows of a stacked block; otherwise the sketch starts at zero.
    """

    def __init__(self, params: SketchParams, arrays=None):
        self.params = params
        R, B = params.rows, params.buckets_per_row
        if arrays is None:
            arrays = tuple(np.zeros((R, B), dtype=t) for t in (np.int64, np.int64, np.uint64))
        self.counts, self.id_sums, self.fps = arrays
        self._seeds = np.array([params.seed & MASK64], dtype=np.uint64)
        self._row_seeds = sketch_row_seeds(self._seeds, R)[0]
        # field element for the polynomial fingerprint, away from 0 and 1:
        # `sketch_fp_bases` of the seed, by the cheaper scalar chain
        self._r = prf(params.seed, _FP_TAG) % (FIELD_PRIME - 3) + 2
        self._rows_idx = np.arange(R)

    def update(self, index: int, delta: int) -> None:
        """Add `delta` to coordinate `index` of the summarized vector.

        The one-item reference path: `update_many` and the stream engine
        must reach the same state as a loop of these calls.  Any integer
        passes, numpy's included; anything else raises before a change.
        """
        try:
            index, delta = operator.index(index), operator.index(delta)
        except TypeError:
            raise SketchError(f"update needs integers, got ({index!r}, {delta!r})") from None
        if not (0 <= index < self.params.universe_size):
            raise SketchError(f"index {index} out of range")
        if delta == 0:
            return
        b = bucket_hash(self._row_seeds, index, self.params.buckets_per_row)
        self.counts[self._rows_idx, b] += delta
        self.id_sums[self._rows_idx, b] += delta * index
        inc = (delta % FIELD_PRIME) * pow(self._r, index, FIELD_PRIME) % FIELD_PRIME
        self.fps[self._rows_idx, b] = (self.fps[self._rows_idx, b] + np.uint64(inc)) % _PRIME

    def update_many(self, indices, deltas) -> None:
        """Apply a batch of updates in place, as a one-slot `accumulate`;
        same end state as a loop of `update` calls."""
        idx = int_array(indices).ravel()
        d = int_array(deltas).ravel()
        if idx.shape != d.shape:
            raise SketchError("indices and deltas differ in length")
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.params.universe_size:
            raise SketchError("index out of range")
        accumulate(
            self.counts[None], self.id_sums[None], self.fps[None], self._seeds,
            np.zeros(idx.size, dtype=np.int64), idx, d, self.params.universe_size,
        )

    def merge(self, other: "SparseRecoverySketch") -> "SparseRecoverySketch":
        """Bucket-wise sum; summarizes the sum of the two net vectors."""
        if self.params != other.params:
            raise SketchError("merge requires identical params and seed")
        arrays = (self.counts + other.counts, self.id_sums + other.id_sums,
                  field_reduce(self.fps + other.fps))
        return SparseRecoverySketch(self.params, arrays)

    def recover(self):
        """{index: nonzero value} of the net vector, peeled as a block of
        one; None (FAIL) if a residual is left or the net has more than k
        entries.  Values outside [-1, n] are never peeled."""
        _, index, value, fail = peel(
            self.counts[None].copy(), self.id_sums[None].copy(), self.fps[None].copy(),
            self._row_seeds[None], np.array([self._r], dtype=np.uint64), self.params.universe_size,
        )
        # k-sparse recovery: a denser net FAILs even when it peels
        if fail[0] or index.size > self.params.sparsity_budget:
            return None
        return dict(zip(index.tolist(), value.tolist()))

    # -- snapshots ------------------------------------------------------------

    def serialize(self) -> bytes:
        """Little-endian header (n, k, p, R, seed) + bucket arrays; bit-exact."""
        p = self.params
        header = struct.pack("<qqdqQ", p.universe_size, p.sparsity_budget,
                             p.failure_prob, p.rows, p.seed & ((1 << 64) - 1))
        return header + self.counts.tobytes() + self.id_sums.tobytes() + self.fps.tobytes()

    @classmethod
    def deserialize(cls, blob: bytes) -> "SparseRecoverySketch":
        """Inverse of `serialize`; raises SketchError unless `blob` is exactly
        a header and its three bucket arrays with reduced fingerprints."""
        off = struct.calcsize("<qqdqQ")
        if len(blob) < off:
            raise SketchError(f"snapshot of {len(blob)} bytes is shorter than its header")
        n, k, p, rows, seed = struct.unpack_from("<qqdqQ", blob, 0)
        params = SketchParams(n, k, p, seed)
        if rows != params.rows:
            raise SketchError("row count mismatch in snapshot header")
        R, B = params.rows, params.buckets_per_row
        cells = R * B
        if len(blob) != off + 3 * cells * 8:
            raise SketchError(
                f"snapshot has {len(blob)} bytes, its header implies {off + 3 * cells * 8}")
        arrays = []
        for dtype in (np.int64, np.int64, np.uint64):
            arrays.append(np.frombuffer(blob, dtype=dtype, count=cells, offset=off).reshape(R, B).copy())
            off += cells * 8
        if (arrays[2] >= _PRIME).any():
            raise SketchError("snapshot fingerprint outside the field mod 2^61 - 1")
        return cls(params, tuple(arrays))
