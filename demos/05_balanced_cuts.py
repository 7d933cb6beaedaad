"""Balanced sparse cuts, two ways: exhaustive search and the spectral sweep.

Both take a (possibly sparsified) cluster graph plus the original degrees
and either certify the cluster an expander at sparsity phi or hand back a
cut: the exhaustive search returns the most balanced qualifying cut and is
the ground truth at desk scale; the sweep peels cuts along the
second eigenvector and scales polynomially.
"""

from powercut import (
    barbell_graph,
    exhaustive_balanced_cut,
    min_conductance_bruteforce,
    sweep_balanced_cut,
    Graph,
)

B = barbell_graph(2, 8, 1)
print("barbell: two K8 joined by one bridge, volume", B.total_volume)

out = exhaustive_balanced_cut(B, B.deg, phi=0.2, delta=0.0)
print("exhaustive at phi=0.2:", "expander" if out.expander else
      f"cut {out.cut.tolist()} Phi'={out.sparsity_estimate:.4f} bal={out.balance:.2f}")

out = sweep_balanced_cut(B, B.deg, phi=0.2)
print("sweep at phi=0.2:     ", "expander" if out.expander else
      f"cut {out.cut.tolist()} Phi'={out.sparsity_estimate:.4f} bal={out.balance:.2f}")
print("  (1/57 is the bridge cut: one edge over a side of volume 57)")

print()
K16 = Graph(16, [(i, j) for i in range(16) for j in range(i + 1, 16)])
print("K16 at phi=0.3:")
print("  exhaustive:", "expander" if exhaustive_balanced_cut(K16, K16.deg, 0.3, 0.0).expander else "cut")
print("  sweep:     ", "expander" if sweep_balanced_cut(K16, K16.deg, 0.3).expander else "cut")
print("  true minimum conductance:", round(min_conductance_bruteforce(K16)[0], 4))

print()
two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
out = sweep_balanced_cut(two, two.deg, 0.5)
print("disconnected input is a free cut:", out.cut.tolist(),
      "Phi' =", out.sparsity_estimate)
