"""Power cut sparsifiers: cut preservation inside every cluster of a partition.

A classical cut sparsifier preserves cuts of the whole graph; it says
nothing about cuts inside an induced subgraph.  The degree-based sampler
here gives the stronger guarantee: for any partition fixed in advance,
every induced cluster of the sample is a multiplicative/additive cut
sparsifier of the corresponding induced cluster of the input.

This demo draws samples in a deliberately aggressive regime (mean keep
probability ~0.3) and measures how often the guarantee breaks, then shows
the adversarial two-vertex cluster that additive slack barely tolerates.
"""

import numpy as np

from powercut import (
    SparsifierParams,
    check_cut_sparsifier,
    check_power_partition,
    random_regular_graph,
    sample,
    upsilon,
)
from powercut.sparsify import edge_probabilities

G = random_regular_graph(16, 8, seed=4)
print("input: 8-regular graph on 16 vertices, volume", G.total_volume)
print("formula oversampling factor at (eps=0.5, delta=0.25, C=1):",
      round(upsilon(16, 0.5, 0.25), 1), "-> every p_e clamps to 1")

params = SparsifierParams(delta=0.25, eps=0.9, upsilon_override=1.2, seed=0)
print("override Y=1.2 -> mean p_e =", float(edge_probabilities(G, 1.2).mean()))

rng = np.random.default_rng(3)
partitions = []
for _ in range(50):
    labels = rng.integers(0, 3, size=16)
    partitions.append([np.flatnonzero(labels == c) for c in range(3) if (labels == c).any()])

bad = 0
for s in range(40):
    H = sample(G, SparsifierParams(delta=0.25, eps=0.9, upsilon_override=1.2, seed=s))
    for P in partitions:
        ok, _ = check_power_partition(G, H, P, 0.25, 0.9)
        bad += int(not ok)
total = 40 * len(partitions)
print(f"violations at (delta=0.25, eps=0.9): {bad}/{total} = {bad / total:.3f}")

print()
print("why the additive term matters: pair up the endpoints of a dropped edge")
H = sample(G, SparsifierParams(delta=0.25, eps=0.9, upsilon_override=1.2, seed=1))
kept = set((u, v) for u, v, _ in H.edge_list())
u, v = next((u, v) for u, v, _ in G.edge_list() if (u, v) not in kept)
pair = np.array([u, v])
g_pair = G.induce_with_loops(pair)
h_pair = H.induce_with_loops(pair)
tight = check_cut_sparsifier(g_pair, h_pair, 0.25, 0.9)
harsh = check_cut_sparsifier(g_pair, h_pair, 0.25, 0.01)
print(f"cluster {{{u}, {v}}} with its edge dropped: "
      f"eps=0.9 passes: {tight.ok}; eps=0.01 passes: {harsh.ok}")
