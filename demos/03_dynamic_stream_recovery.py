"""Recovering a subsampled graph from an insert/delete edge stream.

Each vertex keeps a degree counter plus one recovery sketch per sampling
level; level i keeps each edge with probability 2^-i via a seeded hash.
After the stream, every vertex reads the level matched to its degree, and
the union of recovered neighborhoods is a reweighted subsampled graph.

The punchline: the result is bit-for-bit the graph that direct offline
sampling of the final edge set produces under the same seed, even though
the stream deleted half of what it inserted.
"""

import numpy as np

from powercut import SparsifierParams, StreamState, gen_stream, gnp_graph, sample_offline
from powercut.stream import vertex_levels

G = gnp_graph(64, 0.55, seed=12)
print(f"target graph: n=64, {G.num_edges} edges, max degree {int(G.deg.max())}")

params = SparsifierParams(delta=0.25, eps=0.5, upsilon_override=4.0, seed=99)
state = StreamState(64, params)
print(f"stream state: k={state.k}, levels 0..{state.levels}")

updates = gen_stream(G, churn=1.0, seed=5)  # (u, v, delta) rows, +1 insert, -1 delete
ins = int((updates[:, 2] == 1).sum())
print(f"stream: {len(updates)} updates ({ins} inserts, {len(updates) - ins} deletes)")
state.process_many(updates)
print("degree counters exact:", np.array_equal(state.deg, G.deg.astype(np.int64)))
print(f"state holds {state.memory_bytes()} bytes: the sketch slots the stream touched, "
      f"and the degree counters")

H = state.recover_sparsifier()
if H is None:
    print("recovery FAILED (rerun with a larger upsilon override)")
else:
    oracle = sample_offline(G, params)
    print(f"recovered {H.num_edges} edges, weights {sorted(set(H.edge_w.tolist()))}")
    print("equals offline sampling oracle bit-exactly:",
          H.edge_list() == oracle.edge_list())
    levels = vertex_levels(state.deg, state.upsilon, state.levels).tolist()
    print("vertex levels in use:", sorted(set(levels)),
          "(level >= 1 means that vertex's neighborhood was subsampled)")
