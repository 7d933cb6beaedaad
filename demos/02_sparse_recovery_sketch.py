"""The k-sparse recovery sketch: linear, mergeable, exact or FAIL.

A sketch compresses an integer vector under a stream of +-1 updates into
O(k log(1/p) log n) space.  If the net vector has at most k nonzeros it
comes back exactly (with probability 1-p); denser vectors report FAIL.
Linearity is the whole point: deletions are just negative updates, and two
sketches of the same shape add.
"""

from powercut import SketchParams, SparseRecoverySketch

params = SketchParams(universe_size=256, sparsity_budget=4, failure_prob=1e-4, seed=7)
s = SparseRecoverySketch(params)
print(f"fresh sketch: {params.rows} rows x {params.buckets_per_row} buckets,"
      f" recover() = {s.recover()}")

for i in (3, 17, 200):
    s.update(i, +1)
print("after inserting {3, 17, 200}:", s.recover())

s.update(17, -1)
print("after deleting 17:", s.recover())

# linearity: a noisy insert/delete pair leaves the state bit-identical
blob_before = s.serialize()
s.update(99, +1)
s.update(99, -1)
print("insert+delete cancels bit-exactly:", s.serialize() == blob_before)

# merging sketches of disjoint updates recovers the sum vector
a = SparseRecoverySketch(params)
b = SparseRecoverySketch(params)
a.update(1, +1)
b.update(2, +1)
print("merge of e_1 and e_2 sketches:", a.merge(b).recover())

# a net vector denser than k is refused rather than guessed
dense = SparseRecoverySketch(params)
for i in range(16):
    dense.update(i, +1)
print("16 nonzeros at k=4 recovers as:", dense.recover(), "(FAIL)")
