#!/usr/bin/env python3
"""Benchmark of powercut: one workload per run, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the workload's inputs for
the seed, times several fresh-interpreter set-ups, then does a warm-up job
and repeats the job until S seconds have passed since the warm-up ended.
Every job's output is checked (see checks.py).  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it alternates plain and traced jobs
and reports the per-layer metrics of the median traced job, whose spans go
to .bench_work/traces/.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 means the run
could not start, 1 a crash; neither prints a result.
"""

import os

# One BLAS thread, fixed before numpy loads: the cut enumerators' small
# matrix products gain no wall time from a second thread on a 2-vCPU host,
# only CPU contention and noise.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SKETCH, SPECS, STREAM, new_source, run_job, setup  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

END_TO_END = [
    ("job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("state_mb", "MB"),
]

# (metric, unit, source): source is ("self"|"total"|"count", trace key),
# ("probe", step) or ("derived", None)
PER_LAYER = [
    ("graph.load_s", "s", ("probe", "load_graph_s")),
    ("graph.build_s", "s", ("self", "graph.build")),
    ("graph.builds", "count", ("count", "graph.build.calls")),
    ("graph.induce_s", "s", ("self", "graph.induce")),
    ("graph.induce_calls", "count", ("count", "graph.induce.calls")),
    ("graph.enumerate_s", "s", ("self", "graph.enumerate")),
    ("graph.cuts_enumerated", "count", ("count", "graph.cuts_enumerated")),
    ("graph.bruteforce_s", "s", ("self", "graph.bruteforce")),
    ("sketch.init_s", "s", ("self", "sketch.init")),
    ("sketch.sketches_built", "count", ("count", "sketch.init.calls")),
    ("sketch.update_s", "s", ("self", "sketch.update")),
    ("sketch.update_calls", "count", ("count", "sketch.update.calls")),
    ("sketch.update_many_s", "s", ("self", "sketch.update_many")),
    ("sketch.update_many_calls", "count", ("count", "sketch.update_many.calls")),
    ("sketch.update_many_items", "count", ("count", "sketch.update_many_items")),
    ("sketch.recover_s", "s", ("self", "sketch.recover")),
    ("sketch.recover_calls", "count", ("count", "sketch.recover.calls")),
    ("sketch.recover_fails", "count", ("count", "sketch.recover_fails")),
    ("stream.load_s", "s", ("probe", "load_stream_s")),
    ("stream.process_s", "s", ("self", "stream.process")),
    ("stream.process_calls", "count", ("count", "stream.process.calls")),
    ("stream.process_many_s", "s", ("self", "stream.process_many")),
    ("stream.updates_applied", "count", ("count", "stream.updates_applied")),
    ("stream.recover_s", "s", ("self", "stream.recover")),
    ("stream.recover_calls", "count", ("count", "stream.recover.calls")),
    ("stream.recover_fails", "count", ("count", "stream.recover_fails")),
    ("sparsify.sample_s", "s", ("self", "sparsify.sample")),
    ("sparsify.sample_calls", "count", ("count", "sparsify.sample.calls")),
    ("cuts.exhaustive_s", "s", ("self", "cuts.exhaustive")),
    ("cuts.exhaustive_calls", "count", ("count", "cuts.exhaustive.calls")),
    ("cuts.sweep_s", "s", ("self", "cuts.sweep")),
    ("cuts.sweep_calls", "count", ("count", "cuts.sweep.calls")),
    ("decompose.self_s", "s", ("self", "decompose.decompose")),
    ("decompose.feed_s", "s", ("self", "decompose.feed")),
    ("decompose.pool_fetch_s", "s", ("self", "decompose.pool_fetch")),
    ("decompose.verify_self_s", "s", ("self", "decompose.verify")),
    ("decompose.verify_total_s", "s", ("total", "decompose.verify")),
    ("decompose.pool_states", "count", ("derived", None)),
    ("decompose.pool_states_recovered", "count", ("derived", None)),
    ("decompose.pool_use_ratio", "ratio", ("derived", None)),
    ("decompose.depth", "count", ("derived", None)),
    ("decompose.phase2_iterations", "count", ("derived", None)),
    ("decompose.sweep_fallbacks", "count", ("derived", None)),
    ("decompose.fail_retries", "count", ("derived", None)),
    ("powercut.import_s", "s", ("probe", "import_s")),
    ("trace.overhead_s", "s", ("derived", None)),
    ("trace.job_s", "s", ("derived", None)),
    ("trace.outside_s", "s", ("derived", None)),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def host_probe_s() -> float:
    """Median time of a fixed pure-Python loop as the run starts.

    On the 2-vCPU VM where the benchmark was built it read about 15 ms in
    fast periods and about 35 ms in slow ones; job times moved with it while
    the program's work stayed fixed.
    """
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    """What a reader needs to tell a slow host from a slow program."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "host_probe_s": host_probe_s(),
        "python": platform.python_version(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def import_program():
    sys.path.insert(0, str(SRC))
    pc = importlib.import_module("powercut")
    if Path(pc.__file__).resolve().parent != SRC / "powercut":
        raise SystemExit(f"error: imported powercut from {pc.__file__}, not from {SRC}")
    # the package's `decompose` function shadows this module attribute
    return pc, importlib.import_module("powercut.decompose")


def probe_setup(name: str, seed: int, in_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(in_dir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- outputs --------------------------------------------------------------------


def signature(out) -> str:
    """Everything a job computes, as text, to compare jobs with each other."""
    if "sparsifier" in out:
        H = out["sparsifier"]
        if H is None:
            return "FAIL"
        return json.dumps([H.edge_u.tolist(), H.edge_v.tolist(), H.edge_w.tolist()])
    clusters = [c.tolist() for c in out["clusters"]]
    return "\n".join([out["report"].to_json(), out["verify"].to_json(), json.dumps(clusters)])


def state_bytes(out, source) -> int:
    """The program's own account of its sparsifier state after the job."""
    if "sparsifier" in out:
        return source.memory_bytes()
    return out["report"].memory_bytes


def check_output(pc, name, inp, ctx, out, source) -> list:
    spec = SPECS[name]
    net_deg = inp.net_degrees()
    if spec.kind == SKETCH:
        problems = checks.check_degrees(net_deg, source.deg, "stream state")
        offline = pc.sample_offline(pc.Graph(inp.n, inp.edges), ctx["params"])
        return problems + checks.check_sparsifier(
            inp.edges, net_deg, spec.upsilon_override, out["sparsifier"], offline)
    phi = checks.phi_final(inp.n, spec.eps, spec.quality_k, spec.delta)
    problems = []
    if not math.isclose(out["report"].phi_final, phi, rel_tol=1e-9):
        problems.append(f"report phi_final {out['report'].phi_final} != schedule {phi}")
    problems += checks.check_decomposition(inp.n, inp.edges, out["clusters"], spec.eps, phi)
    if not out["verify"].ok:
        problems.append("verify_decomposition rejects the partition")
    if spec.kind == STREAM:
        for i, st in enumerate(source.all_states()):
            found = checks.check_degrees(net_deg, st.deg, f"pool state {i}")
            if found:
                return problems + found
    return problems


# -- per-layer figures ------------------------------------------------------------


def layer_metrics(dmod, name, ctx, source, out, tracer, job_s, probes) -> dict:
    """Per-layer figures of one traced job."""
    kind = SPECS[name].kind
    counts = tracer.counts
    if kind == STREAM:
        states = sum(1 for _ in source.all_states())
        recovered = counts["stream.recover.calls"]
    elif kind == SKETCH:
        states, recovered = 1, counts["stream.recover.calls"]
    else:
        # offline pools draw lazily: count the slots a stream run would feed
        sched = dmod.make_schedule(ctx["params"], ctx["graph"].n)
        states = sched.depth_bound + (ctx["params"].quality_k + 1) * sched.alg2_pool_size
        recovered = counts["sparsify.sample.calls"]
    report = out.get("report")
    derived = {
        "decompose.pool_states": states,
        "decompose.pool_states_recovered": recovered,
        "decompose.pool_use_ratio": recovered / states,
        "decompose.depth": report.depth if report else 0,
        "decompose.phase2_iterations": sum(report.iterations.values()) if report else 0,
        "decompose.sweep_fallbacks": report.sweep_fallbacks if report else 0,
        "decompose.fail_retries": report.fail_retries if report else 0,
        "trace.job_s": job_s,
        "trace.outside_s": job_s - tracer.root_time(),
    }
    metrics = {}
    for metric, _, (how, key) in PER_LAYER:
        if how == "self":
            metrics[metric] = tracer.self_s.get(key, 0.0)
        elif how == "total":
            metrics[metric] = tracer.total_s.get(key, 0.0)
        elif how == "count":
            metrics[metric] = int(counts[key])
        elif how == "probe":
            metrics[metric] = statistics.median(p.get(key, 0.0) for p in probes)
        else:
            metrics[metric] = derived.get(metric)
    return metrics


# -- the run ------------------------------------------------------------------------


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    plain_s: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # (job_s, layer metrics, spans)
    state_mb: float = math.nan


def measure(pc, dmod, name, inp, ctx, seconds, probes, tracer) -> Measurement:
    """A warm-up job, then plain jobs (alternating with traced ones when
    `tracer` is set) until `seconds` have passed since the warm-up ended."""
    failures = (dmod.DecompositionInvariantError, dmod.SketchFailExhausted, dmod.PoolExhausted)
    m = Measurement()
    reference = None
    source = ctx.pop("source")
    start = None
    while True:
        use_trace = tracer is not None and start is not None and len(m.traced) < len(m.plain_s)
        if source is None:
            source = new_source(pc, name, ctx)
        m.attempted += 1
        if use_trace:
            tracer.reset()
            tracer.install()
        try:
            t0 = perf_counter()
            out = run_job(dmod, name, ctx, source)
            job_s = perf_counter() - t0
        except failures as e:
            m.failed += 1
            m.problems.append(f"job {m.attempted}: {type(e).__name__}: {e}")
            out = None
        finally:
            if use_trace:
                tracer.uninstall()
        if out is not None:
            sig = signature(out)
            if reference is None:
                reference = sig
                m.problems += check_output(pc, name, inp, ctx, out, source)
                m.state_mb = state_bytes(out, source) / 1e6
            elif sig != reference:
                m.problems.append(f"job {m.attempted}: output differs from the first job's")
            if use_trace:
                layers = layer_metrics(dmod, name, ctx, source, out, tracer, job_s, probes)
                m.traced.append((job_s, layers, tracer.spans))
            elif start is not None:
                m.plain_s.append(job_s)
        # release this job's pools or state before the next job builds its own
        source = out = None
        if start is None:
            start = perf_counter()
        enough = len(m.plain_s) >= 2 and (tracer is None or m.traced)
        if perf_counter() - start >= seconds and (enough or m.failed >= 3):
            return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "powercut" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    name, seed = args.workload, args.seed

    inp = inputs.make_inputs(name, seed)
    in_dir = inputs.inputs_dir(ROOT, name, seed)
    inputs.write_inputs(inp, in_dir)

    pc, dmod = import_program()
    import numpy
    import scipy

    env.update(numpy=numpy.__version__, scipy=scipy.__version__)
    probes = [probe_setup(name, seed, in_dir) for _ in range(SETUP_PROBES)]
    ctx, _ = setup(pc, name, seed, in_dir)
    tracer = Tracer() if args.trace else None
    m = measure(pc, dmod, name, inp, ctx, args.seconds, probes, tracer)
    if len(m.plain_s) < 2 or (tracer is not None and not m.traced):
        print("error: too few jobs completed to measure:", *m.problems, sep="\n", file=sys.stderr)
        return 1

    problems = m.problems
    if tracer is None:
        metrics = {
            "job_s": statistics.median(m.plain_s),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "state_mb": m.state_mb,
        }
        units = dict(END_TO_END)
    else:
        m.traced.sort(key=lambda t: t[0])
        job_s, metrics, spans = m.traced[(len(m.traced) - 1) // 2]
        metrics["trace.overhead_s"] = job_s - statistics.median(m.plain_s)
        accounted = metrics["trace.outside_s"] + sum(
            metrics[k] for k, _, (how, _) in PER_LAYER if how == "self")
        if not math.isclose(accounted, job_s, rel_tol=1e-6, abs_tol=1e-9):
            problems.append(f"layer self times add to {accounted}, traced job took {job_s}")
        units = {k: u for k, u, _ in PER_LAYER}
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        Tracer.write_spans(spans, WORK / "traces" / f"{name}-seed{seed}.json")

    result = {
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=name, seed=seed, trace=args.trace, env=env,
                  problems=problems, plain_job_s=m.plain_s,
                  traced_job_s=[t[0] for t in m.traced], setup_probes=probes)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{name}-seed{seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    print("env " + json.dumps(env, sort_keys=True))
    for p in problems:
        print("problem: " + p)
    for k, u in units.items():
        v = metrics[k]
        print(f"{k:<34} {v:>14d} {u}" if isinstance(v, int) else f"{k:<34} {v:>14.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
