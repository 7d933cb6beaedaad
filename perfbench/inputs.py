"""Seeded workload inputs, generated without `powercut.generators`.

Every input is a pure function of the workload name and the seed.  Graphs
and streams are written in the program's own text formats, so the program
reads them through `load_graph` and `load_stream` exactly as a user's files.
A change to `powercut.generators` can therefore never change a workload.

Edge counts are fixed rather than drawn per pair, so a job's cost does not
move with the seed: cut enumeration costs follow n and m alone.  The spectral
sweeps of fast mode also follow each block's spectrum, so fast-planted uses
random regular blocks joined at fixed vertices; with G(n, m) blocks and
random bridges its job time varied by 17% (quartile spread over six seeds,
measured in one process) against 4% with regular blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import SPECS


@dataclass
class Inputs:
    """One workload instance: the edge list and, for streams, the updates."""

    n: int
    edges: list  # sorted (u, v) pairs, u < v, no repeats
    updates: list | None = None  # (insert, u, v) in stream order
    blocks: list | None = None  # planted vertex blocks, for the self-test

    def net_degrees(self) -> np.ndarray:
        """Degrees of the net graph the stream (or edge list) describes."""
        deg = np.zeros(self.n, dtype=np.int64)
        if self.updates is None:
            for u, v in self.edges:
                deg[u] += 1
                deg[v] += 1
            return deg
        for ins, u, v in self.updates:
            d = 1 if ins else -1
            deg[u] += d
            deg[v] += d
        return deg


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed & ((1 << 63) - 1), tag])


def _random_pairs(rng, vertices: np.ndarray, count: int) -> list:
    """`count` distinct unordered pairs over `vertices`, uniformly at random."""
    k = vertices.size
    iu, iv = np.triu_indices(k, 1)
    pick = rng.choice(iu.size, size=count, replace=False)
    return [(int(vertices[iu[i]]), int(vertices[iv[i]])) for i in np.sort(pick)]


def barbell(c: int, s: int) -> list:
    """c cliques K_s in a row, consecutive cliques joined by one bridge."""
    edges = []
    for b in range(c):
        base = b * s
        edges += [(base + i, base + j) for i in range(s) for j in range(i + 1, s)]
    edges += [(b * s, (b + 1) * s) for b in range(c - 1)]
    return sorted(edges)


def regular(rng, k: int, d: int) -> list:
    """Random simple d-regular graph on k vertices (d even): a circulant
    graph randomized by 10m degree-preserving edge switches."""
    edges = {(min(i, (i + j) % k), max(i, (i + j) % k))
             for i in range(k) for j in range(1, d // 2 + 1)}
    order = sorted(edges)
    for _ in range(10 * len(order)):
        i, j = (int(x) for x in rng.integers(len(order), size=2))
        (a, b), (c, e) = order[i], order[j]
        if rng.random() < 0.5:
            c, e = e, c
        new1, new2 = (min(a, e), max(a, e)), (min(c, b), max(c, b))
        if a == e or c == b or new1 == new2 or new1 in edges or new2 in edges:
            continue
        edges -= {order[i], order[j]}
        edges |= {new1, new2}
        order[i], order[j] = new1, new2
    return sorted(edges)


def planted_path(block_edges: list, size: int, bridges: int):
    """Blocks of `size` vertices in a path: block b holds `block_edges[b]`
    shifted by b*size, and vertex j < `bridges` of each block is joined to
    vertex j of the next.  Returns (edges, block vertex arrays); blocks two
    apart share no edge.
    """
    edges = []
    for b, inner in enumerate(block_edges):
        edges += [(u + b * size, v + b * size) for u, v in inner]
        if b + 1 < len(block_edges):
            edges += [(b * size + j, (b + 1) * size + j) for j in range(bridges)]
    groups = [np.arange(b * size, (b + 1) * size) for b in range(len(block_edges))]
    return sorted(edges), groups


def gnm(rng, n: int, m: int) -> list:
    """Uniform random simple graph with exactly m edges."""
    return sorted(_random_pairs(rng, np.arange(n), m))


def churned_stream(rng, n: int, edges: list, churn: float) -> list:
    """Shuffled inserts of `edges` plus round(churn*m) insert-then-delete
    decoys on distinct non-edges; the net graph is exactly `edges`."""
    present = set(edges)
    want = int(round(churn * len(edges)))
    decoys = []
    seen = set()
    while len(decoys) < want:
        u, v = (int(x) for x in rng.integers(n, size=2))
        key = (min(u, v), max(u, v))
        if u == v or key in present or key in seen:
            continue
        seen.add(key)
        decoys.append(key)
    events = [(float(rng.random()), 1, u, v) for u, v in edges]
    for u, v in decoys:
        a, b = sorted(float(x) for x in rng.random(2))
        events.append((a, 1, u, v))
        events.append((b, 0, u, v))
    # on a tie in time an insert goes before a delete
    events.sort(key=lambda e: (e[0], -e[1]))
    return [(bool(ins), u, v) for _, ins, u, v in events]


def write_graph(path: Path, n: int, edges: list) -> None:
    with open(path, "w") as f:
        f.write(f"{n} {len(edges)}\n")
        f.writelines(f"{u} {v}\n" for u, v in edges)


def write_stream(path: Path, n: int, updates: list) -> None:
    with open(path, "w") as f:
        f.write(f"{n}\n")
        f.writelines(f"{'+' if ins else '-'} {u} {v}\n" for ins, u, v in updates)


def make_inputs(name: str, seed: int) -> Inputs:
    """The inputs of workload `name` under `seed`; same seed, same inputs."""
    spec = SPECS[name]
    z = spec.sizes
    rng = _rng(seed, sorted(SPECS).index(name))
    if name == "stream-barbell":
        n = z["cliques"] * z["clique_size"]
        edges = barbell(z["cliques"], z["clique_size"])
        return Inputs(n, edges, churned_stream(rng, n, edges, z["churn"]))
    if name == "sketch-gnp":
        edges = gnm(rng, z["n"], z["m"])
        return Inputs(z["n"], edges, churned_stream(rng, z["n"], edges, z["churn"]))
    size = z["block_size"]
    if name == "exact-planted":
        inner = [gnm(rng, size, z["inner_edges"]) for _ in range(z["blocks"])]
    else:
        inner = [regular(rng, size, z["degree"]) for _ in range(z["blocks"])]
    edges, blocks = planted_path(inner, size, z["bridges"])
    return Inputs(z["blocks"] * size, edges, blocks=blocks)


def write_inputs(inp: Inputs, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_graph(out_dir / "graph.txt", inp.n, inp.edges)
    if inp.updates is not None:
        write_stream(out_dir / "stream.txt", inp.n, inp.updates)


def inputs_dir(root: Path, name: str, seed: int) -> Path:
    return root / ".bench_work" / "inputs" / f"{name}-seed{seed}"


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description="write one workload's input files")
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    out = inputs_dir(Path(__file__).resolve().parent.parent, args.workload, args.seed)
    write_inputs(make_inputs(args.workload, args.seed), out)
    print(out)
