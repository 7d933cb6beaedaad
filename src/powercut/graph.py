"""Undirected multigraphs with self-loops plus exact cut/volume arithmetic.

Conventions used throughout the package:

* vertices are dense integer ids ``0..n-1``;
* a self-loop contributes its weight exactly ONCE to the degree of its
  endpoint (so a loop-free unweighted graph has ``Vol(V) = 2|E|``);
* a "cut" is a vertex set S with ``{} != S != V``; its weight counts edges
  with exactly one endpoint in S, so self-loops never cross a cut;
* conductance(S) = cut_weight(S) / min(Vol(S), Vol(complement)).

Graphs and partitions are immutable after construction and safe to share
across threads.  Verification inequalities elsewhere in the package use the
relative slack `REL_SLACK` to absorb float rounding.
"""

from __future__ import annotations

import math

import numpy as np

REL_SLACK = 1e-9

# exhaustive 2^n enumerations are refused above this many vertices
BRUTE_FORCE_LIMIT = 22


class GraphError(ValueError):
    pass


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

    `edges` is an iterable of (u, v) or (u, v, w) with w > 0 (default 1).
    Parallel edges are kept as distinct entries.
    """

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise GraphError("n must be nonnegative")
        self.n = int(n)
        us, vs, ws = [], [], []
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = 1.0
            else:
                u, v, w = e
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range [0, {n})")
            if w <= 0:
                raise GraphError(f"edge ({u},{v}) has nonpositive weight {w}")
            if u > v:
                u, v = v, u
            us.append(u)
            vs.append(v)
            ws.append(float(w))
        self.edge_u = np.asarray(us, dtype=np.int64)
        self.edge_v = np.asarray(vs, dtype=np.int64)
        self.edge_w = np.asarray(ws, dtype=np.float64)
        deg = np.zeros(n, dtype=np.float64)
        np.add.at(deg, self.edge_u, self.edge_w)
        nonloop = self.edge_u != self.edge_v
        np.add.at(deg, self.edge_v[nonloop], self.edge_w[nonloop])
        self.deg = deg
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

    def _mask(self, S: np.ndarray) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[S] = True
        return mask

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
        mask = self._mask(S)
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
        local = -np.ones(self.n, dtype=np.int64)
        local[C] = np.arange(C.size)
        mask = self._mask(C)
        keep = mask[self.edge_u] & mask[self.edge_v]
        lu = local[self.edge_u[keep]]
        lv = local[self.edge_v[keep]]
        lw = self.edge_w[keep]
        inner_deg = np.zeros(C.size, dtype=np.float64)
        np.add.at(inner_deg, lu, lw)
        nonloop = lu != lv
        np.add.at(inner_deg, lv[nonloop], lw[nonloop])
        edges = list(zip(lu.tolist(), lv.tolist(), lw.tolist()))
        lost = self.deg[C] - inner_deg
        for i, missing in enumerate(lost):
            # float dust below REL_SLACK is rounding, not genuine lost degree
            if missing > REL_SLACK * max(1.0, self.deg[C[i]]):
                edges.append((i, i, float(missing)))
        return Graph(C.size, edges)


# -- cut enumeration helpers (n <= BRUTE_FORCE_LIMIT) ------------------------


def enumerate_cut_stats(G: Graph, batch: int = 1 << 16):
    """Yield (masks, cut_weights, vol_small) over all unordered nontrivial cuts.

    Each cut appears once, as the side S that excludes vertex n-1; mask bit v
    set means v in S.  vol_small is min(Vol(S), Vol(complement)).
    """
    n = G.n
    if n > BRUTE_FORCE_LIMIT:
        raise GraphError(f"too large for 2^n enumeration: n={n} > {BRUTE_FORCE_LIMIT}")
    if n < 2:
        return
    total = G.total_volume
    eu, ev, ew = G.edge_u, G.edge_v, G.edge_w
    vids = np.arange(n, dtype=np.int64)
    top = 1 << (n - 1)
    for start in range(1, top, batch):
        masks = np.arange(start, min(start + batch, top), dtype=np.int64)
        bits_u = (masks[:, None] >> eu[None, :]) & 1
        bits_v = (masks[:, None] >> ev[None, :]) & 1
        cw = ((bits_u != bits_v) * ew[None, :]).sum(axis=1)
        in_s = ((masks[:, None] >> vids[None, :]) & 1).astype(np.float64)
        vol_s = in_s @ G.deg
        vol_small = np.minimum(vol_s, total - vol_s)
        yield masks, cw, vol_small, vol_s


def mask_to_set(mask: int, n: int) -> np.ndarray:
    return np.array([v for v in range(n) if (mask >> v) & 1], dtype=np.int64)


def min_conductance_bruteforce(G: Graph):
    """Exact minimum conductance over all nontrivial cuts, with a witness.

    Cuts where both sides have zero volume are skipped (conductance is
    undefined there).  Returns (inf, None) when no valid cut exists.
    G is a phi-expander iff the returned value is >= phi.
    """
    best = math.inf
    best_mask = None
    for masks, cw, vol_small, _ in enumerate_cut_stats(G):
        valid = vol_small > 0
        if not valid.any():
            continue
        phi = np.where(valid, cw / np.where(valid, vol_small, 1.0), math.inf)
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


def load_graph(path) -> Graph:
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise GraphError(f"{path}: expected header 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for _ in range(m):
            parts = f.readline().split()
            if len(parts) == 2:
                edges.append((int(parts[0]), int(parts[1])))
            elif len(parts) == 3:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            else:
                raise GraphError(f"{path}: malformed edge line {parts}")
    return Graph(n, edges)


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
                v, cid = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(f"{where}: ids must be integers") from None
            if not 0 <= v < n:
                raise GraphError(f"{where}: vertex {v} out of range [0, {n})")
            if cid < 0:
                raise GraphError(f"{where}: negative cluster id {cid}")
            if label[v] >= 0:
                raise GraphError(f"{where}: vertex {v} assigned twice")
            label[v] = cid
    clusters = []
    for cid in sorted(set(label.tolist())):
        if cid < 0:
            raise GraphError(f"{path}: vertex missing cluster assignment")
        clusters.append(np.flatnonzero(label == cid).astype(np.int64))
    return clusters
