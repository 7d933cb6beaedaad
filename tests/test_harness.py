import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powercut import (
    DecompParams,
    Graph,
    GraphError,
    SparsifierParams,
    barbell_graph,
    decompose,
    gen_graph,
    gen_stream,
    gnp_graph,
    planted_partition_graph,
    random_regular_graph,
    verify_decomposition,
)
from powercut import generators
from powercut.cli import main
from powercut.experiment import ExperimentConfig, run_experiment
from powercut.graph import load_graph, save_graph
from powercut.stream import save_stream

from conftest import NON_ASCII_DIGIT_TOKENS, assert_same_graph


# -- generators -------------------------------------------------------------------


def test_barbell_example():
    G = barbell_graph(2, 4, 1)
    assert G.n == 8
    assert G.total_volume == 26.0
    assert G.num_edges == 13


def test_gnp_zero_probability_empty():
    G = gnp_graph(10, 0.0, seed=1)
    assert G.num_edges == 0


def test_regular_degrees_exact():
    for seed in range(5):
        G = random_regular_graph(16, 8, seed=seed)
        assert set(G.deg.tolist()) == {8.0}
        keys = set(zip(G.edge_u.tolist(), G.edge_v.tolist()))
        assert len(keys) == G.num_edges  # simple graph


def test_regular_infeasible_params():
    with pytest.raises(GraphError):
        random_regular_graph(5, 3)
    with pytest.raises(GraphError):
        random_regular_graph(4, 4)


@pytest.mark.parametrize("make", [
    lambda: barbell_graph(2, 4, -1),
    lambda: barbell_graph(2, 4, 5),
    lambda: planted_partition_graph(2, 4, 1.5, 0.1),
    lambda: planted_partition_graph(2, 4, 0.5, -0.2),
    lambda: planted_partition_graph(2, 4, float("nan"), 0.1),
    lambda: gnp_graph(4, 1.5),
], ids=["bridges-negative", "bridges-above-s", "p-in-above-one", "p-out-negative",
        "p-in-nan", "gnp-p-above-one"])
def test_generators_reject_out_of_range_parameters(make):
    with pytest.raises(GraphError):
        make()


@pytest.mark.parametrize("argv", [
    ["--model", "barbell", "--c", "2", "--s", "4", "--bridges", "-1"],
    ["--model", "barbell", "--c", "2", "--s", "4", "--bridges", "5"],
    ["--model", "planted", "--c", "2", "--s", "4", "--p-in", "1.5", "--p-out", "0.1"],
    ["--model", "planted", "--c", "2", "--s", "4", "--p-in", "0.5", "--p-out", "-0.2"],
], ids=["bridges-negative", "bridges-above-s", "p-in-above-one", "p-out-negative"])
def test_cli_gen_graph_rejects_out_of_range_parameters(tmp_path, argv):
    out = tmp_path / "g.txt"
    assert main(["gen-graph", *argv, "--out", str(out)]) == 2
    assert not out.exists()


def test_planted_partition_shape():
    G = planted_partition_graph(3, 4, 1.0, 0.0, seed=0)
    # p_in = 1, p_out = 0: three disjoint K4s
    assert G.num_edges == 3 * 6
    assert G.cut_weight(np.arange(4)) == 0.0


def _gnp_tuples(n, p, seed):
    rng = np.random.default_rng(seed & ((1 << 64) - 1))
    edges = []
    for u in range(n):
        draws = rng.random(n - u - 1)
        for off in np.flatnonzero(draws < p):
            edges.append((u, u + 1 + int(off)))
    return Graph(n, edges)


def _barbell_tuples(c, s, bridges):
    edges = [(b * s + i, b * s + j) for b in range(c) for i in range(s) for j in range(i + 1, s)]
    edges += [(b * s + j, (b + 1) * s + j) for b in range(c - 1) for j in range(bridges)]
    return Graph(c * s, edges)


def _planted_tuples(c, s, p_in, p_out, seed):
    n = c * s
    rng = np.random.default_rng(seed & ((1 << 64) - 1))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < (p_in if u // s == v // s else p_out):
                edges.append((u, v))
    return Graph(n, edges)


@pytest.mark.parametrize("seed", range(20))
def test_generators_equal_tuple_loops(seed):
    # the array generators against the tuple-list loops they replaced
    rng = np.random.default_rng(seed)
    n, p, p_in, p_out = int(rng.integers(0, 30)), *rng.random(3)
    c, s = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    bridges = int(rng.integers(0, s + 1))
    assert_same_graph(gnp_graph(n, p, seed=seed), _gnp_tuples(n, p, seed))
    assert_same_graph(planted_partition_graph(c, s, p_in, p_out, seed=seed),
                      _planted_tuples(c, s, p_in, p_out, seed))
    assert_same_graph(barbell_graph(c, s, bridges), _barbell_tuples(c, s, bridges))


@pytest.mark.parametrize("seed", range(5))
def test_generators_in_small_pair_blocks_equal_tuple_loops(monkeypatch, seed):
    # 7 pairs a block: many blocks, and rows longer than a block get one each
    monkeypatch.setattr(generators, "PAIR_BLOCK", 7)
    rng = np.random.default_rng(seed)
    n, p, p_in, p_out = int(rng.integers(2, 30)), *rng.random(3)
    c, s = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    assert_same_graph(gnp_graph(n, p, seed=seed), _gnp_tuples(n, p, seed))
    assert_same_graph(planted_partition_graph(c, s, p_in, p_out, seed=seed),
                      _planted_tuples(c, s, p_in, p_out, seed))


def test_generators_hold_one_pair_block_at_a_time():
    # every pair at once peaked at 112 MB (gnp) and 184 MB (planted)
    for make in (lambda: gnp_graph(3000, 0.01, seed=1),
                 lambda: planted_partition_graph(10, 300, 0.05, 0.001, seed=1)):
        tracemalloc.start()
        try:
            make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


def test_gen_graph_dispatch():
    assert gen_graph("barbell", c=2, s=4, bridges=1).n == 8
    with pytest.raises(GraphError):
        gen_graph("mystery", n=4)
    with pytest.raises(GraphError):
        gen_graph("barbell", c=2, s=4, bridge=1)


def test_gen_stream_counts():
    G = gnp_graph(12, 0.4, seed=5)
    m = G.num_edges
    rows = gen_stream(G, churn=0.0, seed=1)
    assert rows.shape == (m, 3) and rows.dtype == np.int64
    assert (rows[:, 2] == 1).all()
    assert gen_stream(G, churn=1.0, seed=1).shape == (3 * m, 3)


def test_gen_stream_well_formed_replay():
    G = gnp_graph(12, 0.4, seed=8)
    for churn in (0.0, 0.5, 1.0):
        live = set()
        for u, v, delta in gen_stream(G, churn=churn, seed=3).tolist():
            key = (min(u, v), max(u, v))
            if delta == 1:
                assert key not in live  # no double insert
                live.add(key)
            else:
                assert key in live  # never delete an absent edge
                live.remove(key)
        want = set((u, v) for u, v, _ in G.edge_list())
        assert live == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(0, 14), p=st.floats(0.0, 1.0), graph_seed=st.integers(0, 10**6),
       churn=st.floats(0.0, 3.0), seed=st.integers(0, 10**6))
def test_gen_stream_replay_nets_exactly_to_G(n, p, graph_seed, churn, seed):
    G = gnp_graph(n, p, seed=graph_seed)
    net = {}
    for u, v, delta in gen_stream(G, churn=churn, seed=seed).tolist():
        key = (min(u, v), max(u, v))
        net[key] = net.get(key, 0) + delta
    assert set(net.values()) <= {0, 1}
    assert sorted(k for k, x in net.items() if x) == list(zip(G.edge_u.tolist(), G.edge_v.tolist()))


def test_gen_stream_rejects_weighted_graphs():
    with pytest.raises(GraphError):
        gen_stream(Graph(3, [(0, 1, 2.0)]), churn=0.0)


def test_gen_stream_deterministic():
    G = gnp_graph(10, 0.5, seed=2)
    assert np.array_equal(gen_stream(G, 0.7, seed=9), gen_stream(G, 0.7, seed=9))


@pytest.mark.parametrize("churn", [-1.0, float("nan"), float("inf")])
def test_gen_stream_rejects_churn_not_finite_and_nonnegative(churn):
    with pytest.raises(GraphError, match="churn"):
        gen_stream(gnp_graph(6, 0.5, seed=1), churn=churn)


# -- experiment runner -------------------------------------------------------------


def barbell_config(**kw):
    base = dict(
        generator={"model": "barbell", "c": 2, "s": 4, "bridges": 1},
        decomp={"eps": 0.3, "quality_k": 2, "mode": "exact"},
        trials=3,
        seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_zero_trials_header_only(tmp_path):
    out = tmp_path / "m.csv"
    run_experiment(barbell_config(trials=0), out_csv=out)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("trial,seed,mode")


def test_run_experiment_rows_respect_eps(tmp_path):
    out = tmp_path / "m.csv"
    results = run_experiment(barbell_config(), out_csv=out)
    assert len(results) == 3
    for r in results:
        assert float(r.row["intercluster_fraction"]) <= 0.3


def test_run_experiment_byte_identical(tmp_path):
    a_csv, a_json = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_json = tmp_path / "b.csv", tmp_path / "b.json"
    run_experiment(barbell_config(), out_csv=a_csv, out_json=a_json)
    run_experiment(barbell_config(), out_csv=b_csv, out_json=b_json)
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_json.read_bytes() == b_json.read_bytes()


def test_run_experiment_config_roundtrip():
    cfg = barbell_config()
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_run_experiment_streaming_trial(tmp_path):
    cfg = barbell_config(trials=1, stream={"churn": 0.5})
    results = run_experiment(cfg, out_csv=tmp_path / "s.csv")
    assert len(results) == 1
    assert int(results[0].row["sketch_memory_bytes"]) > 0


def test_pcs_threads_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("PCS_THREADS", "1")
    out = tmp_path / "m.csv"
    run_experiment(barbell_config(trials=2), out_csv=out)
    assert len(out.read_text().splitlines()) == 3


def test_one_thread_trial_times_add_up_within_the_run(monkeypatch):
    # with one thread each wall_time_ms is that trial's own time, so the
    # figures cannot add up to more than the run took
    monkeypatch.setenv("PCS_THREADS", "1")
    cfg = barbell_config(trials=4, record_timing=True,
                         generator={"model": "planted", "c": 3, "s": 7, "p_in": 0.9, "p_out": 0.02})
    start = time.perf_counter()
    results = run_experiment(cfg)
    run_ms = (time.perf_counter() - start) * 1000.0
    assert sum(float(r.row["wall_time_ms"]) for r in results) <= run_ms


@pytest.mark.parametrize("threads", ["x", "0", "-5"])
def test_cli_run_refuses_bad_pcs_threads(tmp_path, monkeypatch, capsys, threads):
    # 0 and -5 used to run one thread, and x to name no variable
    monkeypatch.setenv("PCS_THREADS", threads)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(barbell_config(trials=1).to_json())
    out = tmp_path / "m.csv"
    assert main(["run", "--config", str(cfg), "--out-csv", str(out)]) == 2
    assert "PCS_THREADS" in capsys.readouterr().err
    assert not out.exists()


# -- CLI ----------------------------------------------------------------------------


def test_cli_roundtrip_decompose_verify(tmp_path):
    g = tmp_path / "g.txt"
    part = tmp_path / "p.txt"
    rpt = tmp_path / "r.json"
    assert main(["gen-graph", "--model", "barbell", "--c", "2", "--s", "4",
                 "--bridges", "1", "--out", str(g)]) == 0
    assert main(["decompose", "--graph", str(g), "--eps", "0.3", "--k", "2",
                 "--mode", "exact", "--out", str(part), "--report", str(rpt)]) == 0
    report = json.loads(rpt.read_text())
    assert main(["verify", "--graph", str(g), "--partition", str(part),
                 "--eps", "0.3", "--phi", str(report["phi_final"])]) == 0


def test_cli_verify_failure_exit_code(tmp_path):
    g = tmp_path / "g.txt"
    part = tmp_path / "p.txt"
    save_graph(barbell_graph(2, 4, 1), g)
    # all-singleton partition cuts everything
    part.write_text("".join(f"{v} {v}\n" for v in range(8)))
    assert main(["verify", "--graph", str(g), "--partition", str(part),
                 "--eps", "0.3", "--phi", "0.01"]) == 1


def test_cli_verify_refutes_a_60_cycle_at_phi_0_9(tmp_path):
    # a 60-cycle is too large to enumerate, so verify sweeps it along its
    # Fiedler vector (lambda_2 is double) and finds the cycle's true minimum
    # conductance, 2 / 60
    g, part, rpt = tmp_path / "g.txt", tmp_path / "p.txt", tmp_path / "r.json"
    save_graph(Graph(60, [(v, (v + 1) % 60) for v in range(60)]), g)
    part.write_text("".join(f"{v} 0\n" for v in range(60)))
    reports = []
    for _ in range(2):
        assert main(["verify", "--graph", str(g), "--partition", str(part), "--eps", "0.3",
                     "--phi", "0.9", "--report", str(rpt)]) == 1
        reports.append(rpt.read_bytes())
    assert reports[0] == reports[1]
    (verdict,) = json.loads(reports[0])["clusters"]
    assert verdict["min_conductance"] == pytest.approx(1.0 / 30.0, rel=1e-12)
    assert not verdict["passed"]


def test_eigensolver_failure_exits_2_and_small_clusters_fall_back(tmp_path, capsys,
                                                                 monkeypatch):
    import scipy.sparse.linalg
    from scipy.sparse.linalg import ArpackNoConvergence

    calls = []

    def no_convergence(*args, **kw):
        calls.append(args[0].shape[0])
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0),
                                  np.zeros((args[0].shape[0], 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    # verify: exit 2 with the message, and no report
    g, part, rpt = tmp_path / "g.txt", tmp_path / "p.txt", tmp_path / "r.json"
    save_graph(Graph(60, [(v, (v + 1) % 60) for v in range(60)]), g)
    part.write_text("".join(f"{v} 0\n" for v in range(60)))
    assert main(["verify", "--graph", str(g), "--partition", str(part), "--eps", "0.3",
                 "--phi", "0.9", "--report", str(rpt)]) == 2
    assert "error: eigsh did not converge" in capsys.readouterr().err
    assert not rpt.exists() and calls == [60]
    # decompose: a fast-mode sweep on 20 vertices falls back to the exhaustive cut
    calls.clear()
    B = barbell_graph(2, 10, 1)
    clusters, rep = decompose(B, DecompParams(eps=0.3, quality_k=2, mode="fast", seed=1))
    assert calls and max(calls) <= 22
    assert sorted(sorted(c.tolist()) for c in clusters) == [list(range(10)), list(range(10, 20))]
    assert verify_decomposition(B, clusters, 0.3, rep.phi_final).ok


def test_cli_config_error_exit_code(tmp_path):
    assert main(["gen-graph", "--model", "regular", "--n", "5", "--d", "3",
                 "--out", str(tmp_path / "x.txt")]) == 2
    assert main(["decompose", "--graph", str(tmp_path / "missing.txt"),
                 "--eps", "0.3", "--k", "2", "--out", str(tmp_path / "p.txt")]) == 2


@pytest.mark.parametrize(
    "line", ["+ 0", "+- 0 1", "+ 0 1 2", "+ 0 9", "- -1 2", "+ 3 3", "- 2 3", "+ 1 0"]
)
def test_cli_sketch_bad_stream_exit_code(tmp_path, line):
    s = tmp_path / "s.txt"
    s.write_text(f"8\n+ 0 1\n{line}\n")
    assert main(["sketch", "--stream", str(s), "--eps", "0.5",
                 "--out", str(tmp_path / "h.txt")]) == 2


@pytest.mark.parametrize("line", ["9 1", "-1 2", "3", "3 1 1"])
def test_cli_verify_bad_partition_exit_code(tmp_path, line):
    g = tmp_path / "g.txt"
    part = tmp_path / "p.txt"
    save_graph(barbell_graph(2, 4, 1), g)
    part.write_text("".join(f"{v} {v // 4}\n" for v in range(8)) + line + "\n")
    assert main(["verify", "--graph", str(g), "--partition", str(part),
                 "--eps", "0.3", "--phi", "0.01"]) == 2


@pytest.mark.parametrize(
    "body", ["3 1\n0 1\n1 2\n", "3 2\n0 1\n", "x 1\n0 1\n", "3 1\n0 1 inf\n",
             "3 1\n0 1 nan\n", "3 1\n0 5\n", "3 1\n0 1 1 1\n"]
)
def test_cli_decompose_bad_graph_exit_code(tmp_path, body):
    g = tmp_path / "g.txt"
    g.write_text(body)
    assert main(["decompose", "--graph", str(g), "--eps", "0.3", "--k", "2",
                 "--mode", "exact", "--out", str(tmp_path / "p.txt")]) == 2


@pytest.mark.parametrize("token", NON_ASCII_DIGIT_TOKENS)
def test_cli_exits_2_naming_the_line_of_an_id_not_in_ascii_digits(tmp_path, capsys, token):
    g, part, s = tmp_path / "g.txt", tmp_path / "p.txt", tmp_path / "s.txt"
    g.write_text(f"12 1\n0 {token}\n", encoding="utf-8")
    assert main(["decompose", "--graph", str(g), "--eps", "0.3", "--k", "2",
                 "--mode", "exact", "--out", str(tmp_path / "out.txt")]) == 2
    assert f"error: {g}:2: " in capsys.readouterr().err
    save_graph(barbell_graph(2, 4, 1), g)
    part.write_text("".join(f"{v} {v // 4}\n" for v in range(7)) + f"{token} 1\n",
                    encoding="utf-8")
    assert main(["verify", "--graph", str(g), "--partition", str(part),
                 "--eps", "0.3", "--phi", "0.01"]) == 2
    assert f"error: {part}:8: " in capsys.readouterr().err
    s.write_text(f"{token}\n+ 0 1\n", encoding="utf-8")
    assert main(["sketch", "--stream", str(s), "--eps", "0.5",
                 "--out", str(tmp_path / "h.txt")]) == 2
    assert f"error: {s}:1: " in capsys.readouterr().err


@pytest.mark.parametrize("demo", ["01_cuts_and_volumes.py", "02_sparse_recovery_sketch.py",
                                  "03_dynamic_stream_recovery.py", "04_power_cut_sparsifier.py",
                                  "05_balanced_cuts.py", "06_expander_decomposition.py"])
def test_enumeration_demo_runs(demo):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, str(root / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_cli_sketch_roundtrip_and_fail_exit(tmp_path):
    g = tmp_path / "g.txt"
    s = tmp_path / "s.txt"
    out = tmp_path / "h.txt"
    assert main(["gen-graph", "--model", "gnp", "--n", "12", "--p", "0.4",
                 "--seed", "3", "--out", str(g)]) == 0
    assert main(["gen-stream", "--graph", str(g), "--churn", "0.5",
                 "--seed", "4", "--out", str(s)]) == 0
    assert main(["sketch", "--stream", str(s), "--eps", "0.5",
                 "--upsilon-override", "50", "--out", str(out)]) == 0
    H = load_graph(out)
    G = load_graph(g)
    assert H.edge_list() == sorted(G.edge_list())  # all levels 0 at big Y

    # frozen FAIL configuration: K6 with a k = 1 budget, seed 1
    g6 = tmp_path / "k6.txt"
    s6 = tmp_path / "k6s.txt"
    save_graph(Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]), g6)
    assert main(["gen-stream", "--graph", str(g6), "--churn", "0.0",
                 "--seed", "1", "--out", str(s6)]) == 0
    assert main(["sketch", "--stream", str(s6), "--eps", "0.5", "--delta", "0.25",
                 "--upsilon-override", "0.12", "--seed", "1",
                 "--out", str(tmp_path / "nope.txt")]) == 3


def test_cli_sparsify_identity_at_formula_upsilon(tmp_path):
    g = tmp_path / "g.txt"
    h = tmp_path / "h.txt"
    save_graph(barbell_graph(2, 4, 1), g)
    assert main(["sparsify", "--graph", str(g), "--eps", "0.5", "--delta", "0.5",
                 "--out", str(h)]) == 0
    assert load_graph(h).edge_list() == barbell_graph(2, 4, 1).edge_list()


def test_cli_run_experiment(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(barbell_config(trials=1).to_json())
    out = tmp_path / "m.csv"
    assert main(["run", "--config", str(cfg), "--out-csv", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def bad_config(drop=None, **kw):
    """A good one-trial JSON config with top-level keys replaced or dropped."""
    config = dict(json.loads(barbell_config(trials=1).to_json()), **kw)
    config.pop(drop, None)
    return config


def bad_decomp(**kw):
    return bad_config(decomp={"eps": 0.3, "quality_k": 2, "mode": "exact", **kw})


# each bad config, with what the error message must name
BAD_CONFIGS = {
    "not-an-object": ([], "JSON object"),
    "unknown-key": (bad_config(trails=2), "'trails'"),
    "missing-key": (bad_config(drop="decomp"), "'decomp'"),
    **{f"decomp-{key}": (bad_decomp(**{key: 1}), repr(key))
       for key in ("alpha", "b", "o_vol", "exact_cut_limit", "fail_exponent", "upsilon_scale",
                   "seed")},
    "fractional-k": (bad_decomp(quality_k=2.5), "quality_k"),
    "fractional-k-stream": (dict(bad_decomp(quality_k=2.5), stream={"churn": 0.5}),
                            "quality_k"),
    "generator-typo": (bad_config(generator={"model": "barbell", "c": 2, "s": 4, "bridge": 1}),
                       "'bridge'"),
    "stream-typo": (bad_config(stream={"churn": 0.5, "spare": 1}), "'spare'"),
    # stream pools draw from one net graph, with no spare slots to size
    "stream-spares": (bad_config(stream={"churn": 0.5, "spares": 1}), "'spares'"),
    "stream-not-an-object": (bad_config(stream=[0.5]), "stream must be a JSON object"),
}


@pytest.mark.parametrize("config, named", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_cli_run_rejects_bad_config(tmp_path, capsys, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out-csv", str(tmp_path / "m.csv")]) == 2
    assert named in capsys.readouterr().err


# config values of the wrong type, with the key the error must name; each
# would crash or run with a wrong meaning
BAD_VALUES = {
    "trials-string": (bad_config(trials="2"), "trials"),
    "trials-negative": (bad_config(trials=-1), "trials"),
    "trials-float": (bad_config(trials=1.0), "trials"),
    "trials-bool": (bad_config(trials=True), "trials"),
    "seed-float": (bad_config(seed=1.5), "seed"),
    "seed-string": (bad_config(seed="1"), "seed"),
    "record-timing-string": (bad_config(record_timing="yes"), "record_timing"),
    "verify-phi-string": (bad_config(verify_phi="x"), "verify_phi"),
    "verify-phi-nan": (bad_config(verify_phi=float("nan")), "verify_phi"),
    "decomp-eps-inf": (bad_decomp(eps=float("inf")), "decomp.eps"),
    "generator-number": (bad_config(generator=5), "generator"),
    "stream-number-no-trials": (bad_config(stream=0.5, trials=0), "stream"),
    "decomp-eps-string": (bad_decomp(eps="0.3"), "decomp.eps"),
    "decomp-delta-string": (bad_decomp(delta="0.05"), "decomp.delta"),
    "decomp-upsilon-override-string": (bad_decomp(upsilon_override="4"),
                                       "decomp.upsilon_override"),
    "decomp-quality-k-bool": (bad_decomp(quality_k=True), "decomp.quality_k"),
    "decomp-eps-string-no-trials": (bad_config(decomp={"eps": "x", "quality_k": 2}, trials=0),
                                    "decomp.eps"),
    "decomp-upsilon-override-nan": (bad_decomp(upsilon_override=float("nan")),
                                    "decomp.upsilon_override"),
    "decomp-upsilon-override-inf": (bad_decomp(upsilon_override=float("inf")),
                                    "decomp.upsilon_override"),
    "decomp-upsilon-override-zero": (bad_decomp(upsilon_override=0),
                                     "decomp.upsilon_override"),
    "decomp-upsilon-override-negative": (bad_decomp(upsilon_override=-2.0),
                                         "decomp.upsilon_override"),
    "stream-churn-string": (bad_config(stream={"churn": "0.5"}), "stream.churn"),
    "stream-churn-negative-no-trials": (bad_config(stream={"churn": -1}, trials=0),
                                        "stream.churn"),
    "stream-churn-nan": (bad_config(stream={"churn": float("nan")}), "stream.churn"),
    "stream-churn-inf": (bad_config(stream={"churn": float("inf")}), "stream.churn"),
}


@pytest.mark.parametrize("config, key", BAD_VALUES.values(), ids=BAD_VALUES)
def test_cli_run_rejects_config_value_of_wrong_type(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out-csv", str(tmp_path / "m.csv")]) == 2
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sparsify", "--graph", "g.txt", "--eps", "0.5", "--upsilon-scale", "0.5", "--out", "h.txt"],
    ["sketch", "--stream", "s.txt", "--eps", "0.5", "--fail-exponent", "2", "--out", "h.txt"],
    ["decompose", "--graph", "g.txt", "--eps", "0.3", "--k", "2", "--upsilon-scale", "0.5",
     "--out", "p.txt"],
    ["verify", "--graph", "g.txt", "--partition", "p.txt", "--eps", "0.3", "--phi", "0.01",
     "--exact-limit", "4"],
], ids=["sparsify-upsilon-scale", "sketch-fail-exponent", "decompose-upsilon-scale",
        "verify-exact-limit"])
def test_cli_refuses_removed_options(tmp_path, monkeypatch, argv):
    # Y has one rule (the formula or --upsilon-override) and verify one exact
    # limit; the files exist, so only the option is refused
    monkeypatch.chdir(tmp_path)
    B = barbell_graph(2, 4, 1)
    save_graph(B, "g.txt")
    save_stream(B.n, gen_stream(B, churn=0.0, seed=1), "s.txt")
    Path("p.txt").write_text("".join(f"{v} {v // 4}\n" for v in range(8)))
    assert main(argv) == 2


@pytest.mark.parametrize("verb", ["sparsify", "sketch"])
@pytest.mark.parametrize("ups", ["nan", "inf", "0", "-1"])
def test_cli_rejects_upsilon_override_not_finite_and_positive(tmp_path, monkeypatch, capsys,
                                                              verb, ups):
    # nan used to write an empty sparsifier, and inf to die of an OverflowError
    monkeypatch.chdir(tmp_path)
    B = barbell_graph(2, 4, 1)
    save_graph(B, "g.txt")
    save_stream(B.n, gen_stream(B, churn=0.5, seed=1), "s.txt")
    source = ["--graph", "g.txt"] if verb == "sparsify" else ["--stream", "s.txt"]
    assert main([verb, *source, "--eps", "0.5", "--upsilon-override", ups,
                 "--out", "h.txt"]) == 2
    assert "upsilon_override" in capsys.readouterr().err
    assert not Path("h.txt").exists()


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split() for line in block.splitlines() if line.startswith("powercut ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(barbell_config(trials=1).to_json())
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)


# -- benchmark harness ---------------------------------------------------------------


def test_perfbench_tracer_installs_and_uninstalls():
    # the benchmark's tracer wraps program names by hand: a rename fails here,
    # not only under `perfbench/run.py --trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    dmod = importlib.import_module("powercut.decompose")
    originals = (dmod.SparsifierPools.__dict__["phase1"], dmod.sample, dmod.decompose)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        G = barbell_graph(2, 4, 1)
        dmod.decompose(G, DecompParams(eps=0.3, quality_k=2, seed=1))
        # offline pools draw by the level rule: `sample` is called here only
        # to check the wrapper perfbench puts on `decompose.sample`
        dmod.sample(G, SparsifierParams(delta=0.25, eps=0.5, seed=1))
    finally:
        tracer.uninstall()
    assert tracer.counts["decompose.pool_fetch.calls"] > 0
    assert tracer.counts["sparsify.sample.calls"] > 0
    assert (dmod.SparsifierPools.__dict__["phase1"], dmod.sample, dmod.decompose) == originals


def test_perfbench_selftest_passes():
    # the benchmark loads streams with `load_stream` and wraps program names
    # by hand: a change to either fails here, not only in a benchmark run
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")],
                          cwd=root, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
