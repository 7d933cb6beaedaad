"""Command-line front end.

Verbs: gen-graph, gen-stream, sparsify (offline sample), sketch (run the
stream engine over a stream file and dump the recovered sparsifier),
decompose, verify, run (experiment config).

Exit codes: 0 success, 1 verification failure, 2 configuration error or a
sweep eigensolve that does not converge (`SweepNumericFailure`), 3
`powercut sketch` recovery FAIL.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cuts import SweepNumericFailure
from .decompose import (
    DecompParams,
    DecompositionInvariantError,
    PoolExhausted,
    decompose,
    verify_decomposition,
)
from .experiment import ExperimentConfig, run_experiment
from .generators import gen_graph, gen_stream
from .graph import GraphError, load_graph, load_partition, save_graph, save_partition
from .sparsify import SparsifierParams, sample
from .stream import StreamState, load_stream, save_stream

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_SKETCH_FAIL = 3


def _add_sparsifier_args(p):
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=1.0 / 16.0)
    p.add_argument("--upsilon-override", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="powercut")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-graph", help="write a generated graph file")
    g.add_argument("--model", required=True, choices=["regular", "gnp", "barbell", "planted"])
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--p", type=float)
    g.add_argument("--c", type=int)
    g.add_argument("--s", type=int)
    g.add_argument("--bridges", type=int)
    g.add_argument("--p-in", type=float)
    g.add_argument("--p-out", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    st = sub.add_parser("gen-stream", help="write an update stream realizing a graph")
    st.add_argument("--graph", required=True)
    st.add_argument("--churn", type=float, default=0.0)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out", required=True)

    sp = sub.add_parser("sparsify", help="offline power-cut-sparsifier sample")
    sp.add_argument("--graph", required=True)
    _add_sparsifier_args(sp)
    sp.add_argument("--out", required=True)

    sk = sub.add_parser("sketch", help="run the stream engine, dump the recovered graph")
    sk.add_argument("--stream", required=True)
    _add_sparsifier_args(sk)
    sk.add_argument("--out", required=True)

    dc = sub.add_parser("decompose", help="two-phase expander decomposition")
    dc.add_argument("--graph", required=True)
    dc.add_argument("--mode", choices=["exact", "fast"], default="exact")
    dc.add_argument("--eps", type=float, required=True)
    dc.add_argument("--k", type=int, required=True)
    dc.add_argument("--delta", type=float, default=1.0 / 16.0)
    dc.add_argument("--seed", type=int, default=0)
    dc.add_argument("--out", required=True, help="partition file")
    dc.add_argument("--report", help="JSON run report path")

    vf = sub.add_parser("verify", help="check an (eps, phi)-expander decomposition")
    vf.add_argument("--graph", required=True)
    vf.add_argument("--partition", required=True)
    vf.add_argument("--phi", type=float, required=True)
    vf.add_argument("--eps", type=float, required=True)
    vf.add_argument("--report", help="JSON verification report path")

    rn = sub.add_parser("run", help="run an experiment config (JSON)")
    rn.add_argument("--config", required=True)
    rn.add_argument("--out-csv", required=True)
    rn.add_argument("--out-json")
    return ap


def _cmd_gen_graph(args) -> int:
    kw = {}
    for name in ("n", "d", "p", "c", "s", "bridges", "p_in", "p_out"):
        val = getattr(args, name)
        if val is not None:
            kw[name] = val
    G = gen_graph(args.model, seed=args.seed, **kw)
    save_graph(G, args.out)
    return EXIT_OK


def _cmd_gen_stream(args) -> int:
    G = load_graph(args.graph)
    updates = gen_stream(G, args.churn, seed=args.seed)
    save_stream(G.n, updates, args.out)
    return EXIT_OK


def _sparsifier_params(args) -> SparsifierParams:
    return SparsifierParams(
        delta=args.delta,
        eps=args.eps,
        upsilon_override=args.upsilon_override,
        seed=args.seed,
    )


def _cmd_sparsify(args) -> int:
    G = load_graph(args.graph)
    H = sample(G, _sparsifier_params(args))
    save_graph(H, args.out)
    return EXIT_OK


def _cmd_sketch(args) -> int:
    n, updates = load_stream(args.stream)
    state = StreamState(n, _sparsifier_params(args))
    state.process_many(updates)
    H = state.recover_sparsifier()
    if H is None:
        print("sketch recovery FAILED", file=sys.stderr)
        return EXIT_SKETCH_FAIL
    save_graph(H, args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    G = load_graph(args.graph)
    params = DecompParams(
        eps=args.eps,
        quality_k=args.k,
        delta=args.delta,
        mode=args.mode,
        seed=args.seed,
    )
    clusters, report = decompose(G, params)
    save_partition(clusters, G.n, args.out)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report.to_json() + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    G = load_graph(args.graph)
    clusters = load_partition(args.partition, G.n)
    rep = verify_decomposition(G, clusters, args.eps, args.phi)
    if args.report:
        with open(args.report, "w") as f:
            f.write(rep.to_json() + "\n")
    print(
        f"intercluster fraction {rep.intercluster_fraction:.6g} "
        f"({'<=' if rep.volume_ok else '>'} eps={rep.eps}); "
        f"{sum(1 for c in rep.clusters if c.passed)}/{len(rep.clusters)} clusters pass phi={rep.phi:.6g}"
    )
    return EXIT_OK if rep.ok else EXIT_VERIFY_FAIL


def _cmd_run(args) -> int:
    with open(args.config) as f:
        config = ExperimentConfig.from_json(f.read())
    run_experiment(config, out_csv=args.out_csv, out_json=args.out_json)
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    handlers = {
        "gen-graph": _cmd_gen_graph,
        "gen-stream": _cmd_gen_stream,
        "sparsify": _cmd_sparsify,
        "sketch": _cmd_sketch,
        "decompose": _cmd_decompose,
        "verify": _cmd_verify,
        "run": _cmd_run,
    }
    try:
        return handlers[args.cmd](args)
    except (GraphError, PoolExhausted, DecompositionInvariantError, SweepNumericFailure,
            ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
