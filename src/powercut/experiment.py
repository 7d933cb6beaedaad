"""Experiment runner: seeded trials, CSV metrics, JSON run reports.

A config bundles a graph generator, optional stream settings, and the
decomposition parameters.  Each trial derives its own seed from the master
seed, so outputs are byte-identical across repeated runs of the same
config.  Wall-clock timing is recorded only when `record_timing` is set,
because a timing column would break that determinism.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

from .decompose import (
    DecompParams,
    SparsifierPools,
    decompose,
    verify_decomposition,
)
from .generators import gen_graph, gen_stream
from .graph import parse_count
from .prf import prf

_TRIAL_TAG = 0x7472

CSV_COLUMNS = [
    "trial",
    "seed",
    "mode",
    "n",
    "eps",
    "k",
    "intercluster_fraction",
    "min_cluster_conductance",
    "singleton_count",
    "depth",
    "wall_time_ms",
    "sketch_memory_bytes",
]


@dataclass
class ExperimentConfig:
    generator: dict
    decomp: dict
    stream: dict | None = None
    trials: int = 1
    seed: int = 0
    record_timing: bool = False
    verify_phi: float | None = None  # defaults to the schedule's final phi

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        _check_keys(data, [f.name for f in fields(cls)], ("generator", "decomp"), "config")
        _check_values(data, _VALUE_RULES, "")
        # the trial derives the decomposition seed itself
        _check_keys(data["decomp"], [f.name for f in fields(DecompParams) if f.name != "seed"],
                    ("eps", "quality_k"), "decomp")
        _check_values(data["decomp"], _DECOMP_RULES, "decomp.")
        if data.get("stream") is not None:
            _check_keys(data["stream"], ("churn",), (), "stream")
            _check_values(data["stream"], _STREAM_RULES, "stream.")
        return cls(**data)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """An int or a finite float: JSON's NaN and Infinity are no value here."""
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


# what each config value must be, as JSON parses it: top-level values, and
# values inside `decomp` and `stream`
_VALUE_RULES = {
    "trials": (lambda x: _is_int(x) and x >= 0, "an integer >= 0"),
    "seed": (_is_int, "an integer"),
    "record_timing": (lambda x: isinstance(x, bool), "true or false"),
    "verify_phi": (lambda x: x is None or _is_number(x), "a finite number or null"),
    "generator": (lambda x: isinstance(x, dict), "a JSON object"),
    "stream": (lambda x: x is None or isinstance(x, dict), "a JSON object or null"),
}
_DECOMP_RULES = {
    "eps": (_is_number, "a finite number"),
    "delta": (_is_number, "a finite number"),
    "quality_k": (_is_int, "an integer"),
    "upsilon_override": (lambda x: x is None or (_is_number(x) and x > 0),
                         "a finite number > 0 or null"),
}
_STREAM_RULES = {
    "churn": (lambda x: _is_number(x) and x >= 0, "a finite number >= 0"),
}


def _check_values(section: dict, rules: dict, prefix: str) -> None:
    """Raise ValueError naming `prefix` + key for the first value of
    `section` that breaks its rule."""
    for key, (ok, what) in rules.items():
        if key in section and not ok(section[key]):
            raise ValueError(f"{prefix}{key} must be {what}, got {section[key]!r}")


def _check_keys(section, known, required, where: str) -> None:
    """Raise ValueError unless `section` is a JSON object whose keys are all
    `known` and include every `required` one."""
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object, got {section!r}")
    unknown = [key for key in section if key not in known]
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}")
    missing = [key for key in required if key not in section]
    if missing:
        raise ValueError(f"{where} lacks the key {missing[0]!r}")


@dataclass
class TrialResult:
    row: dict
    report_json: str
    verify_json: str


def _worker_count() -> int:
    """Threads for `run_experiment`: `PCS_THREADS` when set (ASCII digits,
    at least 1, else ValueError naming it), otherwise min(8, CPUs)."""
    env = os.environ.get("PCS_THREADS")
    if env:
        try:
            count = parse_count(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"PCS_THREADS must be an integer >= 1, got {env!r}")
        return count
    return min(8, os.cpu_count() or 1)


def run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    trial_seed = prf(config.seed, _TRIAL_TAG, trial) & ((1 << 62) - 1)
    gen = dict(config.generator)
    model = gen.pop("model")
    G = gen_graph(model, seed=trial_seed, **gen)

    dp_kwargs = dict(config.decomp)
    dp_kwargs["seed"] = prf(trial_seed, 1)
    params = DecompParams(**dp_kwargs)

    start = time.perf_counter()
    if config.stream is not None:
        pools = SparsifierPools(G.n, params)
        updates = gen_stream(G, config.stream.get("churn", 0.0), seed=prf(trial_seed, 2))
        pools.feed_many(updates)
        clusters, report = decompose(pools, params, reference_graph=G)
    else:
        clusters, report = decompose(G, params)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    phi = config.verify_phi if config.verify_phi is not None else report.phi_final
    verify = verify_decomposition(G, clusters, params.eps, phi)

    exact_minima = [
        v.min_conductance
        for v in verify.clusters
        if v.exact and v.min_conductance is not None
    ]
    row = {
        "trial": trial,
        "seed": trial_seed,
        "mode": params.mode,
        "n": G.n,
        "eps": params.eps,
        "k": params.quality_k,
        "intercluster_fraction": repr(verify.intercluster_fraction),
        "min_cluster_conductance": repr(min(exact_minima)) if exact_minima else "",
        "singleton_count": report.singleton_count,
        "depth": report.depth,
        "wall_time_ms": f"{elapsed_ms:.3f}" if config.record_timing else "",
        "sketch_memory_bytes": report.memory_bytes,
    }
    return TrialResult(row=row, report_json=report.to_json(), verify_json=verify.to_json())


def run_experiment(config: ExperimentConfig, out_csv=None, out_json=None):
    """Run all trials (thread pool capped by PCS_THREADS), merge in order.

    Returns the list of TrialResult; optionally writes the metrics CSV and a
    JSON sidecar with the full per-trial run and verification reports.
    """
    results: list[TrialResult] = []
    if config.trials > 0:
        with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
            futures = [pool.submit(run_trial, config, t) for t in range(config.trials)]
            results = [f.result() for f in futures]
    if out_csv is not None:
        with open(out_csv, "w") as f:
            f.write(",".join(CSV_COLUMNS) + "\n")
            for r in results:
                f.write(",".join(str(r.row[c]) for c in CSV_COLUMNS) + "\n")
    if out_json is not None:
        payload = {
            "config": json.loads(config.to_json()),
            "reports": [json.loads(r.report_json) for r in results],
            "verifications": [json.loads(r.verify_json) for r in results],
        }
        with open(out_json, "w") as f:
            json.dump(payload, f, sort_keys=True, indent=1)
            f.write("\n")
    return results
