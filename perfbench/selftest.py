#!/usr/bin/env python3
"""Self-test of the benchmark's checks and tracer.

    python3 perfbench/selftest.py

Each output check must pass the program's real output and reject a
corrupted copy of it: a vertex dropped from the partition, two planted
blocks merged into one cluster, one edge of a recovered sparsifier
reweighted.  A traced job must compute exactly what a plain job computes,
down to the bytes of its RunReport JSON, and uninstalling the tracer must
restore every wrapped name.  The metric lists in BENCHMARK.json must match
the ones run.py prints.  Exits 1 if any of this fails.  Takes about a
minute.
"""

import json
import sys

import run  # pins the BLAS threads before numpy loads
import checks
import inputs
from tracer import Tracer
from workloads import SPECS, new_source, run_job, setup

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def prepare(pc, name: str, seed: int):
    inp = inputs.make_inputs(name, seed)
    in_dir = inputs.inputs_dir(run.ROOT, name, seed)
    inputs.write_inputs(inp, in_dir)
    ctx, _ = setup(pc, name, seed, in_dir)
    return inp, ctx


def check_benchmark_json() -> None:
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(SPECS),
           "BENCHMARK.json names the workloads of workloads.py")
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end-to-end metrics match run.py")
    expect([(m["name"], m["unit"]) for m in bench["per_layer"]]
           == [(m, u) for m, u, _ in run.PER_LAYER],
           "BENCHMARK.json per-layer metrics match run.py")


def check_decomposition_checks(pc, dmod) -> None:
    name = "fast-planted"
    inp, ctx = prepare(pc, name, seed=1)
    source = ctx.pop("source")
    out = run_job(dmod, name, ctx, source)
    expect(run.check_output(pc, name, inp, ctx, out, source) == [],
           "fast-planted: the program's output passes")

    clusters = out["clusters"]
    dropped = dict(out, clusters=[clusters[0][1:]] + clusters[1:])
    expect(run.check_output(pc, name, inp, ctx, dropped, source) != [],
           "fast-planted: a vertex dropped from the partition is rejected")

    # blocks 0 and 2 of the planted path share no edge
    label = {int(v): i for i, c in enumerate(clusters) for v in c}
    a, b = label[int(inp.blocks[0][0])], label[int(inp.blocks[2][0])]
    merged_cluster = sorted(clusters[a].tolist() + clusters[b].tolist())
    rest = [c for i, c in enumerate(clusters) if i not in (a, b)]
    merged = dict(out, clusters=rest + [merged_cluster])
    expect(a != b and run.check_output(pc, name, inp, ctx, merged, source) != [],
           "fast-planted: two planted blocks merged into one cluster are rejected")


def check_sparsifier_checks(pc, dmod) -> None:
    name = "sketch-gnp"
    inp, ctx = prepare(pc, name, seed=1)
    source = ctx.pop("source")
    out = run_job(dmod, name, ctx, source)
    expect(run.check_output(pc, name, inp, ctx, out, source) == [],
           "sketch-gnp: the recovered sparsifier passes")
    H = out["sparsifier"]
    w = H.edge_w.copy()
    w[len(w) // 2] *= 2.0
    bad = pc.Graph(H.n, list(zip(H.edge_u.tolist(), H.edge_v.tolist(), w.tolist())))
    expect(run.check_output(pc, name, inp, ctx, {"sparsifier": bad}, source) != [],
           "sketch-gnp: one reweighted sparsifier edge is rejected")
    expect(checks.sample_levels(inp.net_degrees(), SPECS[name].upsilon_override).max() > 0,
           "sketch-gnp: some vertices recover above level 0, so weights are checked")


def check_tracing_changes_nothing(pc, dmod) -> None:
    originals = (dmod.decompose, pc.Graph.__init__, dmod.sample)
    for name in SPECS:
        _, ctx = prepare(pc, name, seed=2)
        plain = run_job(dmod, name, ctx, ctx.pop("source"))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_job(dmod, name, ctx, new_source(pc, name, ctx))
        finally:
            tracer.uninstall()
        expect(len(tracer.spans) > 0 and run.signature(traced) == run.signature(plain),
               f"{name}: a traced job computes what a plain job computes")
        if "report" in plain:
            expect(traced["report"].to_json() == plain["report"].to_json(),
                   f"{name}: traced and plain RunReport JSON are byte-identical")
    expect((dmod.decompose, pc.Graph.__init__, dmod.sample) == originals,
           "uninstalling the tracer restores the wrapped names")


def main() -> int:
    pc, dmod = run.import_program()
    check_benchmark_json()
    check_decomposition_checks(pc, dmod)
    check_sparsifier_checks(pc, dmod)
    check_tracing_changes_nothing(pc, dmod)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
