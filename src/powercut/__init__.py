"""Power cut sparsifiers, dynamic-stream sketching, and expander decomposition.

Layers, bottom up:

* `graph` — multigraphs with degree-preserving induced subgraphs and exact
  cut/volume/conductance arithmetic, including brute-force oracles;
* `sketch` — linear k-sparse exact-recovery sketches (insert/delete/merge);
* `stream` — the per-vertex, per-level sketching engine that recovers a
  degree-subsampled weighted graph from a dynamic edge stream;
* `sparsify` — the offline degree-based sampler and exhaustive verification
  of the multiplicative/additive sparsifier property per induced cluster;
* `cuts` — exhaustive and spectral-sweep balanced sparse cut procedures;
* `decompose` — the two-phase recursive decomposition with pooled
  sparsifiers, runtime invariant checks, and a verifier;
* `generators` / `experiment` / `cli` — instance generators, the seeded
  experiment runner, and the command-line front end.
"""

from .cuts import (
    EXPANDER,
    BalancedCutOutcome,
    SweepNumericFailure,
    exhaustive_balanced_cut,
    sweep_balanced_cut,
)
from .decompose import (
    DecompParams,
    DecompositionInvariantError,
    PoolExhausted,
    PoolTooLarge,
    RunReport,
    Schedule,
    SketchFailExhausted,
    SparsifierPools,
    StreamSparsifierPools,
    VerifyReport,
    decompose,
    make_schedule,
    verify_decomposition,
)
from .generators import (
    barbell_graph,
    gen_graph,
    gen_stream,
    gnp_graph,
    planted_partition_graph,
    random_regular_graph,
)
from .graph import (
    Graph,
    GraphError,
    intercluster_volume,
    load_graph,
    load_partition,
    min_conductance_bruteforce,
    save_graph,
    save_partition,
)
from .sketch import SketchParams, SparseRecoverySketch
from .sparsify import (
    SparsifierParams,
    check_cut_sparsifier,
    check_power_partition,
    sample,
    upsilon,
)
from .stream import (
    StreamState,
    load_stream,
    sample_offline,
    save_stream,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
