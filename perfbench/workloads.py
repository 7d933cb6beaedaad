"""The four workloads: their sizes, the program's set-up, and one job each.

This module imports only the standard library at the top, so the set-up
probe can time `import powercut` from a clean interpreter.  Program objects
come in through the `pc` (package) and `dmod` (`powercut.decompose`)
arguments and every program function is looked up on them at call time, so
the tracer's wrappers see each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

STREAM, OFFLINE, SKETCH = "stream", "offline", "sketch"


@dataclass(frozen=True)
class Spec:
    kind: str
    sizes: dict
    eps: float
    mode: str = "exact"
    quality_k: int = 2
    delta: float = 1.0 / 16.0
    upsilon_override: float | None = None


# Why each workload is here, and what it should and should not move, is in
# README.md; the reasons in one line each are in BENCHMARK.json.
SPECS = {
    # the stream pools fed a churned stream, then exact decomposition
    "stream-barbell": Spec(STREAM, dict(cliques=2, clique_size=10, churn=0.5), eps=0.3),
    # 2^(n-1) cut enumeration; touches neither stream nor sketch
    "exact-planted": Spec(
        OFFLINE, dict(blocks=3, block_size=7, inner_edges=17, bridges=1), eps=0.3),
    # spectral sweeps, graph building and sampling; no enumeration
    "fast-planted": Spec(
        OFFLINE, dict(blocks=10, block_size=60, degree=18, bridges=3), eps=0.3,
        mode="fast"),
    # one StreamState: batched sketch updates, then peeling at every vertex
    "sketch-gnp": Spec(SKETCH, dict(n=400, m=3990, churn=0.5), eps=0.5, upsilon_override=4.0),
}


def program_params(pc, name: str, seed: int):
    spec = SPECS[name]
    if spec.kind == SKETCH:
        return pc.SparsifierParams(delta=spec.delta, eps=spec.eps,
                                   upsilon_override=spec.upsilon_override, seed=seed)
    return pc.DecompParams(eps=spec.eps, quality_k=spec.quality_k, delta=spec.delta,
                           mode=spec.mode, seed=seed)


def setup(pc, name: str, seed: int, inputs_dir: Path):
    """Parse the inputs with the program's loaders and build the source.

    Returns (context, step times).  This is the work every CLI call pays
    before its job starts.
    """
    kind = SPECS[name].kind
    steps = {}
    ctx = {"params": program_params(pc, name, seed)}
    if kind != SKETCH:
        t0 = perf_counter()
        ctx["graph"] = pc.load_graph(inputs_dir / "graph.txt")
        steps["load_graph_s"] = perf_counter() - t0
    if kind != OFFLINE:
        t0 = perf_counter()
        ctx["n"], ctx["updates"] = pc.load_stream(inputs_dir / "stream.txt")
        steps["load_stream_s"] = perf_counter() - t0
    t0 = perf_counter()
    ctx["source"] = new_source(pc, name, ctx)
    steps["construct_s"] = perf_counter() - t0
    return ctx, steps


def new_source(pc, name: str, ctx):
    """What one job consumes: fresh pools or state for a stream, else the graph."""
    kind = SPECS[name].kind
    if kind == STREAM:
        return pc.StreamSparsifierPools(ctx["n"], ctx["params"])
    if kind == SKETCH:
        return pc.StreamState(ctx["n"], ctx["params"])
    return ctx["graph"]


def run_job(dmod, name: str, ctx, source):
    """One user-visible job on a set-up source; returns the raw outputs."""
    kind = SPECS[name].kind
    params = ctx["params"]
    if kind == SKETCH:
        source.process_many(ctx["updates"])
        return {"sparsifier": source.recover_sparsifier()}
    if kind == STREAM:
        source.feed_many(ctx["updates"])
    clusters, report = dmod.decompose(source, params)
    verified = dmod.verify_decomposition(ctx["graph"], clusters, params.eps, report.phi_final)
    return {"clusters": clusters, "report": report, "verify": verified}
