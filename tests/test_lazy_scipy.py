"""scipy loads only when a spectral sweep runs.

Each test starts a fresh interpreter, since the pytest process has long
since imported scipy: the module list of a cold `import powercut` is the
thing under test.  The fresh runs must also give the same outputs as the
same calls made here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from powercut import DecompParams, decompose, planted_partition_graph, verify_decomposition
from powercut.experiment import ExperimentConfig, run_experiment

SRC = Path(__file__).resolve().parent.parent / "src"

# fast mode sweeps, and two 30-vertex blocks are above the exact limit, so
# verify sweeps them too
FAST_GRAPH = dict(c=2, s=30, p_in=0.6, p_out=0.005)
FAST_PARAMS = dict(eps=0.3, quality_k=2, mode="fast", seed=5)

COLD_RUN = """
import json, sys
import powercut as pc

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

out_dir = sys.argv[1]
seen = {"import": scipy_modules()}

G = pc.barbell_graph(2, 6, 1)
params = pc.DecompParams(eps=0.3, quality_k=2, mode="exact", seed=5)
clusters, rep = pc.decompose(G, params)
assert pc.verify_decomposition(G, clusters, params.eps, rep.phi_final).ok
pc.save_graph(G, out_dir + "/g.txt")
pc.save_partition(clusters, G.n, out_dir + "/p.txt")
pc.load_partition(out_dir + "/p.txt", pc.load_graph(out_dir + "/g.txt").n)
seen["exact decompose and verify"] = scipy_modules()

rows = pc.gen_stream(G, churn=0.5, seed=1)
pc.save_stream(G.n, rows, out_dir + "/s.txt")
n, rows = pc.load_stream(out_dir + "/s.txt")
pools = pc.SparsifierPools(n, params)
pools.feed_many(rows)
pc.decompose(pools, params, reference_graph=G)
state = pc.StreamState(40, pc.SparsifierParams(delta=0.25, eps=0.5, upsilon_override=1.0, seed=5))
state.process_many(pc.gen_stream(pc.gnp_graph(40, 0.2, seed=1), churn=0.5, seed=2))
assert state.recover_sparsifier() is not None
seen["stream pools and sketched state"] = scipy_modules()

G = pc.planted_partition_graph(seed=3, **%(graph)r)
params = pc.DecompParams(**%(params)r)
clusters, rep = pc.decompose(G, params)
check = pc.verify_decomposition(G, clusters, params.eps, rep.phi_final)
print(json.dumps({"seen": seen, "sparse_after_fast": "scipy.sparse" in sys.modules,
                  "report": rep.to_json(), "verify": check.to_json(),
                  "clusters": [c.tolist() for c in clusters]}))
"""

THREADED_RUN = """
import json, sys
from powercut.experiment import ExperimentConfig, run_experiment

config = ExperimentConfig(**json.loads(sys.argv[1]))
before = [m for m in sys.modules if m.startswith("scipy")]
results = run_experiment(config)
print(json.dumps({"before": before, "sparse_after": "scipy.sparse" in sys.modules,
                  "results": [[r.row, r.report_json, r.verify_json] for r in results]}))
"""


def run_cold(script, *args, **env):
    full_env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=full_env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_scipy_loads_only_on_the_first_sweep(tmp_path):
    got = run_cold(COLD_RUN % {"graph": FAST_GRAPH, "params": FAST_PARAMS}, str(tmp_path))
    assert got["seen"] == {"import": [], "exact decompose and verify": [],
                           "stream pools and sketched state": []}
    assert got["sparse_after_fast"]

    G = planted_partition_graph(seed=3, **FAST_GRAPH)
    params = DecompParams(**FAST_PARAMS)
    clusters, rep = decompose(G, params)
    check = verify_decomposition(G, clusters, params.eps, rep.phi_final)
    assert any(not v["exact"] for v in rep.verdicts)  # the run did sweep
    assert got["report"] == rep.to_json()
    assert got["verify"] == check.to_json()
    assert got["clusters"] == [c.tolist() for c in clusters]


def without_wall_time(results):
    return [[{k: v for k, v in row.items() if k != "wall_time_ms"}, report, verify]
            for row, report, verify in results]


def test_first_scipy_import_inside_worker_threads(monkeypatch):
    config = dict(generator=dict(model="planted", **FAST_GRAPH),
                  decomp=dict(eps=0.3, quality_k=2, mode="fast"),
                  trials=4, seed=11, record_timing=True)
    got = run_cold(THREADED_RUN, json.dumps(config), PCS_THREADS="2")
    assert got["before"] == [] and got["sparse_after"]

    monkeypatch.setenv("PCS_THREADS", "1")
    want = [[r.row, r.report_json, r.verify_json]
            for r in run_experiment(ExperimentConfig(**config))]
    assert all(row["wall_time_ms"] for row, _, _ in want)
    assert without_wall_time(got["results"]) == without_wall_time(json.loads(json.dumps(want)))
