"""End-to-end expander decomposition, offline and from a stream.

Phase one recursively splits along balanced sparse cuts found on pooled
sparsifiers; phase two handles the almost-expander case by shaving thin
cuts into singletons.  The verifier then replays the guarantees on the
original graph: intercluster volume within budget and each induced cluster
an expander at the schedule's final sparsity.
"""

from powercut import (
    DecompParams,
    SparsifierPools,
    barbell_graph,
    decompose,
    gen_stream,
    planted_partition_graph,
    verify_decomposition,
)

# four disjoint communities: the recursion peels them apart one cut at a time
G = planted_partition_graph(4, 8, 0.9, 0.0, seed=31)
params = DecompParams(eps=0.3, quality_k=2, mode="fast", seed=8)
clusters, report = decompose(G, params)
print(f"4 disjoint communities -> {len(clusters)} clusters, sizes {report.cluster_sizes},"
      f" depth {report.depth}")
v = verify_decomposition(G, clusters, params.eps, report.phi_final)
print(f"  verifier at phi_final={report.phi_final:.5f}: ok={v.ok}")

# with sparse noise between communities the boundary cuts are no longer
# phi_0-sparse, so the whole graph is (correctly) certified one expander
G2 = planted_partition_graph(4, 8, 0.9, 0.02, seed=31)
clusters2, report2 = decompose(G2, DecompParams(eps=0.3, quality_k=2, mode="fast", seed=8))
v2 = verify_decomposition(G2, clusters2, 0.3, report2.phi_final)
print(f"with 2% noise -> {len(clusters2)} cluster(s); boundary conductance sits above"
      f" phi_0, verifier ok={v2.ok}")
print(f"  intercluster fraction {report2.intercluster_fraction:.4f} (eps = 0.3)")

print()
print("same pipeline, but fed through a dynamic stream:")
B = barbell_graph(2, 4, 1)
sp = DecompParams(eps=0.3, quality_k=2, mode="exact", seed=17)
pools = SparsifierPools(B.n, sp)
pools.feed_many(gen_stream(B, churn=0.5, seed=2))
print(f"  every sparsifier slot draws from one net graph: {pools.memory_bytes()} bytes"
      f" of net counts after the stream")
clusters, report = decompose(pools, sp, reference_graph=B)
v = verify_decomposition(B, clusters, sp.eps, report.phi_final)
print(f"  clusters {sorted(len(c) for c in clusters)}, verifier ok={v.ok}")
