"""Undirected multigraphs with self-loops plus exact cut/volume arithmetic.

Conventions used throughout the package:

* vertices are dense integer ids ``0..n-1``;
* a self-loop contributes its weight exactly ONCE to the degree of its
  endpoint (so a loop-free unweighted graph has ``Vol(V) = 2|E|``);
* a "cut" is a vertex set S with ``{} != S != V``; its weight counts edges
  with exactly one endpoint in S, so self-loops never cross a cut;
* conductance(S) = cut_weight(S) / min(Vol(S), Vol(complement)).

`enumerate_cut_stats` streams every cut of a graph of at most
`BRUTE_FORCE_LIMIT` vertices in blocks, for the brute-force oracles.
Graphs and partitions are immutable after construction and safe to share
across threads.  Verification inequalities elsewhere in the package use the
relative slack `REL_SLACK` to absorb float rounding.
"""

from __future__ import annotations

import functools
import math

import numpy as np

REL_SLACK = 1e-9

# exhaustive 2^n enumerations are refused above this many vertices
BRUTE_FORCE_LIMIT = 22


class GraphError(ValueError):
    pass


def _degrees(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted degrees with loops counted once, summed edge by edge over the
    u ends and then over the non-loop v ends."""
    nonloop = u != v
    deg = np.bincount(np.concatenate([u, v[nonloop]]), np.concatenate([w, w[nonloop]]), minlength=n)
    return deg.astype(np.float64, copy=False)  # an empty bincount is integer


def as_vertex_set(S, n: int) -> np.ndarray:
    """Normalize an iterable of vertex ids to a sorted unique int64 array."""
    arr = np.asarray(list(S) if not isinstance(S, np.ndarray) else S, dtype=np.int64)
    arr = np.sort(arr)
    if arr.size:
        if arr[0] < 0 or arr[-1] >= n:
            raise GraphError(f"vertex id out of range [0, {n})")
        if np.any(arr[1:] == arr[:-1]):
            raise GraphError("duplicate vertex ids in set")
    return arr


class Graph:
    """Weighted undirected multigraph on vertices 0..n-1, self-loops allowed.

    `edges` is an iterable of (u, v) or (u, v, w) with finite w > 0
    (default 1).  Parallel edges are kept as distinct entries.
    """

    def __init__(self, n: int, edges=()):
        edges = list(edges)
        if any(len(e) not in (2, 3) for e in edges):
            raise GraphError("edges must be (u, v) or (u, v, w) tuples")
        self._set_edges(
            n,
            [e[0] for e in edges],
            [e[1] for e in edges],
            [e[2] if len(e) == 3 else 1.0 for e in edges],
        )

    @classmethod
    def from_arrays(cls, n: int, u, v, w) -> "Graph":
        """Graph from parallel edge arrays, validated like the constructor."""
        G = cls.__new__(cls)
        G._set_edges(n, u, v, w)
        return G

    def _set_edges(self, n, u, v, w) -> None:
        if n < 0:
            raise GraphError("n must be nonnegative")
        self.n = int(n)
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.array(w, dtype=np.float64)
        if not (u.ndim == 1 and u.shape == v.shape == w.shape):
            raise GraphError("edge arrays must be one-dimensional and of equal length")
        self.edge_u = np.minimum(u, v)
        self.edge_v = np.maximum(u, v)
        self.edge_w = w
        ok = (self.edge_u >= 0) & (self.edge_v < self.n) & (w > 0) & (w < np.inf)
        if not ok.all():
            i = int(np.argmin(ok))
            u, v = self.edge_u[i], self.edge_v[i]
            if u < 0 or v >= self.n:
                raise GraphError(f"edge ({u},{v}) out of range [0, {self.n})")
            raise GraphError(f"edge ({u},{v}) has non-finite or nonpositive weight {w[i]}")
        self.deg = _degrees(self.n, self.edge_u, self.edge_v, w)
        self.deg.flags.writeable = False

    # -- basic quantities ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    @property
    def total_volume(self) -> float:
        return float(self.deg.sum())

    def edge_list(self):
        """Edges as (u, v, w) tuples, in storage order."""
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist()))

    def volume(self, S) -> float:
        """Vol(S): sum of weighted degrees over S (loops counted once)."""
        S = as_vertex_set(S, self.n)
        return float(self.deg[S].sum())

    def cut_weight(self, S) -> float:
        """Total weight of edges with exactly one endpoint in S.

        S must be a nontrivial cut; self-loops never cross.
        """
        S = as_vertex_set(S, self.n)
        if S.size == 0 or S.size == self.n:
            raise GraphError("invalid cut: S must be nonempty and proper")
        mask = np.zeros(self.n, dtype=bool)
        mask[S] = True
        cross = mask[self.edge_u] != mask[self.edge_v]
        return float(self.edge_w[cross].sum())

    def conductance(self, S) -> float:
        """cut_weight(S) / min(Vol(S), Vol(S complement))."""
        S = as_vertex_set(S, self.n)
        cw = self.cut_weight(S)
        vol_s = float(self.deg[S].sum())
        vol_rest = self.total_volume - vol_s
        denom = min(vol_s, vol_rest)
        if denom <= 0:
            raise GraphError("degenerate cut: one side has zero volume")
        return cw / denom

    def balance(self, S) -> float:
        """bal(S) = min(Vol(S), Vol(complement)) / Vol(V); at most 1/2."""
        S = as_vertex_set(S, self.n)
        if S.size == 0 or S.size == self.n:
            raise GraphError("invalid cut: S must be nonempty and proper")
        vol_s = float(self.deg[S].sum())
        vol_rest = self.total_volume - vol_s
        if min(vol_s, vol_rest) <= 0:
            raise GraphError("degenerate cut: one side has zero volume")
        return min(vol_s, vol_rest) / self.total_volume

    def induce_with_loops(self, C) -> "Graph":
        """G{C}: subgraph on C with degree-preserving self-loops.

        Vertex i of the result is the i-th smallest id in C.  Keeps every
        edge with both endpoints in C, then adds a self-loop at each vertex
        carrying its lost degree, so deg_{G{C}}(v) == deg_G(v) exactly.
        """
        C = as_vertex_set(C, self.n)
        local = np.full(self.n, -1, dtype=np.int64)
        local[C] = np.arange(C.size)
        lu, lv = local[self.edge_u], local[self.edge_v]
        keep = (lu >= 0) & (lv >= 0)
        lu, lv, lw = lu[keep], lv[keep], self.edge_w[keep]
        inner_deg = _degrees(C.size, lu, lv, lw)
        lost = self.deg[C] - inner_deg
        # float dust below REL_SLACK is rounding, not genuine lost degree
        loops = np.flatnonzero(lost > REL_SLACK * np.maximum(1.0, self.deg[C]))
        return Graph.from_arrays(
            C.size,
            np.concatenate([lu, loops]),
            np.concatenate([lv, loops]),
            np.concatenate([lw, lost[loops]]),
        )


# -- cut enumeration (n <= BRUTE_FORCE_LIMIT) ---------------------------------

# masks of up to this many bits form one low part; wider ones split into a
# low and a high part of about half the bits each
_ONE_TABLE_BITS = 10

# masks per block that `enumerate_cut_stats` yields, so that a block's cut
# weights and volumes stay in cache while the consumer reads them
_BLOCK_MASKS = 1 << 15


@functools.lru_cache(maxsize=None)
def _bits(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables over all k-bit masks s: the (2^k, k) rows of bits of
    s, and the (2^k, k*k) rows of their outer products, so that one product
    evaluates a linear or a quadratic form on every subset at once."""
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    pairs = (bits[:, :, None] * bits[:, None, :]).reshape(1 << k, k * k)
    bits.flags.writeable = pairs.flags.writeable = False
    return bits, pairs


def _split(k: int) -> tuple[int, int]:
    """Number of low and high bits of a k-bit mask: all low up to
    _ONE_TABLE_BITS bits, else about k/2 each."""
    low = k if k <= _ONE_TABLE_BITS else (k + 1) // 2
    return low, k - low


def enumerate_cut_stats(G: Graph, deg: np.ndarray | None = None):
    """Yield (masks, cut_weights, vol_small, vol_s) over all unordered cuts.

    Each cut appears once, as the side S that excludes vertex n-1; mask bit v
    set means v in S.  Cut weights are G's.  Volumes sum `deg`, G's own
    degrees by default or any other n-vector, such as the original-graph
    degrees of a sparsified cluster: vol_s is Vol(S) and vol_small is
    min(Vol(S), Vol(complement)), with the total taken as `float(deg.sum())`.

    The cut weight is the Laplacian quadratic form q(S) = b_S^T L b_S (loops
    never cross).  Splitting S into a high part h and a low part l gives
    q(h | l) = q(h) + q(l) + 2 b_h^T L b_l and Vol(h | l) = Vol(h) + Vol(l),
    so each part needs only its own 2^(bits) factors.  A block is a few rows
    h of the (h, l) grid, about _BLOCK_MASKS masks raveled row-major; blocks
    come in mask order, the empty mask skipped, and no 2^(n-1) table is built.
    """
    n = G.n
    if n > BRUTE_FORCE_LIMIT:
        raise GraphError(f"too large for 2^n enumeration: n={n} > {BRUTE_FORCE_LIMIT}")
    if n < 2:
        return
    deg = G.deg if deg is None else np.asarray(deg, dtype=np.float64)
    total = float(deg.sum())
    W = np.bincount(G.edge_u * n + G.edge_v, G.edge_w, minlength=n * n).reshape(n, n)
    W.reshape(-1)[:: n + 1] = 0.0  # loops never cross
    W += W.T
    L = np.diag(W.sum(axis=1)) - W
    low, high = _split(n - 1)
    lo, hi = slice(0, low), slice(low, n - 1)
    bits_lo, pairs_lo = _bits(low)
    q_lo = pairs_lo.dot(L[lo, lo].ravel())
    v_lo = bits_lo.dot(deg[lo])
    if high:
        bits_hi, pairs_hi = _bits(high)
        P = bits_hi.dot(L[hi, lo])
        q_hi = pairs_hi.dot(L[hi, hi].ravel())
        v_hi = bits_hi.dot(deg[hi])
    rows = _BLOCK_MASKS >> low
    for h0 in range(0, 1 << high, rows):
        h1 = min(h0 + rows, 1 << high)
        if high:
            cw = P[h0:h1].dot(bits_lo.T)
            cw *= 2.0
            cw += q_hi[h0:h1, None]
            cw += q_lo
            vol_s = (v_hi[h0:h1, None] + v_lo).ravel()
        else:
            cw, vol_s = q_lo, v_lo
        # cut weights are nonnegative; a negative entry is cancellation dust
        cw = np.maximum(cw, 0.0, out=cw).ravel()
        first = 0 if h0 else 1  # mask 0 is the empty set, no cut
        vol_s = vol_s[first:]
        vol_small = np.subtract(total, vol_s)
        np.minimum(vol_s, vol_small, out=vol_small)
        masks = np.arange((h0 << low) + first, h1 << low, dtype=np.int64)
        yield masks, cw[first:], vol_small, vol_s


def mask_to_set(mask: int, n: int) -> np.ndarray:
    return np.flatnonzero((mask >> np.arange(n)) & 1)


def min_conductance_bruteforce(G: Graph):
    """Exact minimum conductance over all nontrivial cuts, with a witness.

    Cuts with a side of zero volume are skipped (conductance is
    undefined there).  Returns (inf, None) when no valid cut exists.
    G is a phi-expander iff the returned value is >= phi.
    """
    best = math.inf
    best_mask = None
    for masks, cw, vol_small, _ in enumerate_cut_stats(G):
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = cw / vol_small
        np.copyto(phi, math.inf, where=vol_small <= 0)
        i = int(np.argmin(phi))
        if phi[i] < best:
            best = float(phi[i])
            best_mask = int(masks[i])
    if best_mask is None:
        return math.inf, None
    return best, mask_to_set(best_mask, G.n)


# -- partitions ---------------------------------------------------------------


def check_partition(G: Graph, clusters) -> list[np.ndarray]:
    """Validate that `clusters` partitions V(G); returns normalized arrays."""
    norm = [as_vertex_set(C, G.n) for C in clusters]
    seen = np.zeros(G.n, dtype=np.int64)
    for C in norm:
        if C.size == 0:
            raise GraphError("not-a-partition: empty cluster")
        seen[C] += 1
    if np.any(seen != 1):
        raise GraphError("not-a-partition: clusters must be disjoint and cover V")
    return norm


def intercluster_volume(G: Graph, clusters) -> float:
    """Sum of cut_weight(C) over clusters; inter-cluster edges count twice."""
    norm = check_partition(G, clusters)
    total = 0.0
    for C in norm:
        if C.size == G.n:
            continue
        total += G.cut_weight(C)
    return total


# -- file formats -------------------------------------------------------------


def save_graph(G: Graph, path) -> None:
    """Text format: first line "n m", then m lines "u v w"."""
    with open(path, "w") as f:
        f.write(f"{G.n} {G.num_edges}\n")
        for u, v, w in G.edge_list():
            if w == 1.0:
                f.write(f"{u} {v}\n")
            else:
                f.write(f"{u} {v} {w!r}\n")


def parse_count(token: str) -> int:
    """An id or count read by a file loader: ASCII digits only, else ValueError
    (`int` alone also takes '+1', '1_0' and other scripts' digits)."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a nonnegative integer: {token!r}")
    return int(token)


def parse_weight(token: str) -> float:
    """A weight read by `load_graph`: `float`, except that a token with '_'
    or a non-ASCII character raises ValueError ('1_0' and '٣' are not 10, 3)."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a weight: {token!r}")
    return float(token)


def load_graph(path) -> Graph:
    """Read the header "n m" and exactly m edge lines "u v" or "u v w";
    blank lines are skipped.  A malformed, out-of-range, nonpositive or
    non-finite edge, a missing header and too few or too many edge lines
    raise GraphError naming the line."""
    with open(path) as f:
        try:
            n, m = map(parse_count, f.readline().split())
        except ValueError:
            raise GraphError(f"{path}:1: expected header 'n m' of two nonnegative integers") from None
        us, vs, ws = [], [], []
        lineno = 1
        for lineno, line in enumerate(f, start=2):
            parts = line.split()
            if not parts:
                continue
            where = f"{path}:{lineno}"
            if len(us) == m:
                raise GraphError(f"{where}: more edge lines than the header's m = {m}")
            if len(parts) not in (2, 3):
                raise GraphError(f"{where}: expected 'u v' or 'u v w', got {line.strip()!r}")
            try:
                u, v = parse_count(parts[0]), parse_count(parts[1])
                w = parse_weight(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise GraphError(f"{where}: ids must be nonnegative integers and the weight a number") from None
            if not (u < n and v < n):
                raise GraphError(f"{where}: vertex id out of range [0, {n})")
            if not 0.0 < w < math.inf:
                raise GraphError(f"{where}: weight {parts[2]} is not finite and positive")
            us.append(u)
            vs.append(v)
            ws.append(w)
    if len(us) < m:
        raise GraphError(f"{path}:{lineno + 1}: file ends after {len(us)} of m = {m} edge lines")
    return Graph.from_arrays(n, us, vs, ws)


def save_partition(clusters, n: int, path) -> None:
    """Text format: n lines "v cluster_id"."""
    label = np.full(n, -1, dtype=np.int64)
    for cid, C in enumerate(clusters):
        label[np.asarray(C, dtype=np.int64)] = cid
    with open(path, "w") as f:
        for v in range(n):
            f.write(f"{v} {label[v]}\n")


def load_partition(path, n: int) -> list[np.ndarray]:
    """Read "v cluster_id" lines; each vertex of 0..n-1 exactly once, with a
    nonnegative cluster id.  A malformed line raises GraphError naming it."""
    label = np.full(n, -1, dtype=np.int64)
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            where = f"{path}:{lineno}"
            if len(parts) != 2:
                raise GraphError(f"{where}: expected 'v cluster_id', got {line.strip()!r}")
            try:
                v, cid = parse_count(parts[0]), parse_count(parts[1])
            except ValueError:
                raise GraphError(f"{where}: ids must be nonnegative integers") from None
            if v >= n:
                raise GraphError(f"{where}: vertex {v} out of range [0, {n})")
            if label[v] >= 0:
                raise GraphError(f"{where}: vertex {v} assigned twice")
            label[v] = cid
    clusters = []
    for cid in sorted(set(label.tolist())):
        if cid < 0:
            raise GraphError(f"{path}: vertex missing cluster assignment")
        clusters.append(np.flatnonzero(label == cid).astype(np.int64))
    return clusters
