"""Two-phase expander decomposition driven by pools of cut sparsifiers.

Phase one recursively applies a balanced sparse cut at a fixed sparsity
target; balanced cuts split the cluster, an expander verdict keeps it, and
an unbalanced cut hands the cluster to phase two.  Phase two repeatedly
shaves off sparse cuts at geometrically decreasing sparsity targets and
volume thresholds, emitting the shaved vertices as singletons, until the
remaining core is certified an expander.

Each phase consumes sparsifiers from dedicated pools: one per recursion
depth for phase one, one per (outer, inner) iteration slot for phase two,
shared across all phase-two invocations.  Pools are backed either by
offline samples of the input graph or by independent stream states that all
saw the same update stream.

Termination and quality bounds (recursion depth, iteration counts, the
sparse-cut composition property, the singleton volume budget, per-cluster
expansion, and the intercluster volume budget) are enforced as runtime
checks; a violation raises `DecompositionInvariantError` and means a bug or
a bad-luck sparsifier sample, never a silently wrong answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cuts import (
    BalancedCutOutcome,
    SweepNumericFailure,
    exhaustive_balanced_cut,
    sweep_balanced_cut,
)
from .graph import (
    BRUTE_FORCE_LIMIT,
    REL_SLACK,
    Graph,
    GraphError,
    check_partition,
    intercluster_volume,
    min_conductance_bruteforce,
)
from .prf import prf
from .sparsify import SparsifierParams, sample
from .stream import StreamState, update_arrays, worst_case_bytes

_PHASE1_TAG = 0xA1
_PHASE2_TAG = 0xA2
_SPARE_TAG = 0x5A

EXACT_MODE = "exact"
FAST_MODE = "fast"

# most bytes the states of one `StreamSparsifierPools` may need once every
# slot is touched; planted 4x50 (n = 200, 478 dense states) needs 1.38 GB
POOL_BYTE_CAP = 2 << 30


class PoolExhausted(RuntimeError):
    """A phase asked for more sparsifiers than its sized pool; configuration bug."""


class PoolTooLarge(ValueError):
    """Stream pools whose states could need more than `POOL_BYTE_CAP` bytes."""


class SketchFailExhausted(RuntimeError):
    """Stream recovery kept failing after exhausting the spare states."""


class DecompositionInvariantError(RuntimeError):
    """A runtime check backing the termination/quality analysis failed."""


@dataclass(frozen=True)
class DecompParams:
    """Knobs of the decomposition; alpha/b default per mode when left None."""

    eps: float
    quality_k: int
    delta: float = 1.0 / 16.0
    fail_exponent: float = 1.0
    alpha: float | None = None
    b: float | None = None
    o_vol: float | None = None
    mode: str = EXACT_MODE
    seed: int = 0
    upsilon_scale: float = 1.0
    upsilon_override: float | None = None
    exact_cut_limit: int = BRUTE_FORCE_LIMIT

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise GraphError("need eps in (0, 1)")
        if not (0.0 < self.delta <= 1.0 / 16.0):
            raise GraphError("need delta in (0, 1/16]")
        if self.quality_k < 1:
            raise GraphError("need quality parameter k >= 1")
        if self.mode not in (EXACT_MODE, FAST_MODE):
            raise GraphError(f"unknown mode {self.mode!r}")
        if self.o_vol is not None and self.o_vol < 2:
            raise GraphError("volume upper bound must be at least 2")

    @property
    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        return 1.0 + 5.0 * self.delta

    @property
    def resolved_b(self) -> float:
        if self.b is not None:
            return self.b
        return 1.0 if self.mode == EXACT_MODE else 0.5


@dataclass(frozen=True)
class Schedule:
    """Fig-1 style parameter schedule, all anchored on the volume upper bound."""

    eps: float
    quality_k: int
    alpha: float
    b: float
    delta: float
    o_vol: float

    @property
    def phi0(self) -> float:
        return self.eps / (2.0 * math.log2(self.o_vol) * self.alpha)

    def phi(self, j: int) -> float:
        return self.phi0 * self.alpha ** (-j)

    def psi(self, j: int) -> float:
        return self.delta * self.phi(j)

    @property
    def phi_final(self) -> float:
        return self.phi(self.quality_k + 1)

    @property
    def depth_bound(self) -> int:
        shrink = 1.0 - self.eps * self.b / 4.0
        return math.ceil(math.log2(self.o_vol) / math.log2(1.0 / shrink)) + 2

    @property
    def tau_bound(self) -> int:
        return math.ceil((self.eps * self.o_vol) ** (1.0 / self.quality_k))

    @property
    def alg2_pool_size(self) -> int:
        return math.floor(self.tau_bound / self.b) + 2

    def tau(self, vol_c0: float) -> float:
        return (self.eps * vol_c0) ** (1.0 / self.quality_k)

    def m(self, j: int, vol_c0: float) -> float:
        """m_j = (eps*Vol)^((k-j+1)/k); hits exactly 1 at j = k+1."""
        k = self.quality_k
        return (self.eps * vol_c0) ** ((k - j + 1) / k)

    def inner_bound(self, vol_c0: float) -> int:
        # tau may drop below 1 on tiny clusters the analysis does not cover;
        # flooring it keeps the bound meaningful there
        return math.floor(max(self.tau(vol_c0), 1.0) / self.b) + 1


def make_schedule(params: DecompParams, n: int) -> Schedule:
    o_vol = params.o_vol if params.o_vol is not None else float(max(n, 2)) ** 2
    return Schedule(
        eps=params.eps,
        quality_k=params.quality_k,
        alpha=params.resolved_alpha,
        b=params.resolved_b,
        delta=params.delta,
        o_vol=float(max(o_vol, 4.0)),
    )


# -- sparsifier pools ----------------------------------------------------------


def _slot_params(params: DecompParams, psi: float, seed: int) -> SparsifierParams:
    """Sparsifier parameters of one pool slot at accuracy psi."""
    return SparsifierParams(
        delta=params.delta,
        eps=psi,
        fail_exponent=params.fail_exponent,
        upsilon_scale=params.upsilon_scale,
        upsilon_override=params.upsilon_override,
        seed=seed,
    )


class OfflineSparsifierPool:
    """Lazy pool of independent offline samples, keyed by consumption slot."""

    def __init__(self, G: Graph, params: DecompParams, sched: Schedule):
        self._G = G
        self._params = params
        self._sched = sched
        self._cache: dict[tuple, Graph] = {}
        self.fail_retries = 0

    def phase1(self, depth: int) -> Graph:
        if not (1 <= depth <= self._sched.depth_bound):
            raise PoolExhausted(f"phase-one pool has no slot for depth {depth}")
        key = ("phase1", depth)
        if key not in self._cache:
            sp = _slot_params(self._params, self._sched.psi(0),
                              prf(self._params.seed, _PHASE1_TAG, depth))
            self._cache[key] = sample(self._G, sp)
        return self._cache[key]

    def phase2(self, j: int, h: int) -> Graph:
        if not (1 <= j <= self._sched.quality_k + 1):
            raise PoolExhausted(f"phase-two pool has no level {j}")
        if not (1 <= h <= self._sched.alg2_pool_size):
            raise PoolExhausted(f"phase-two pool level {j} exhausted at slot {h}")
        key = ("phase2", j, h)
        if key not in self._cache:
            sp = _slot_params(self._params, self._sched.psi(j),
                              prf(self._params.seed, _PHASE2_TAG, j, h))
            self._cache[key] = sample(self._G, sp)
        return self._cache[key]

    def memory_bytes(self) -> int:
        return sum(g.edge_w.nbytes * 3 for g in self._cache.values())


class StreamSparsifierPools:
    """Pool slots backed by independent stream states fed the same stream.

    Must be constructed before the stream (sizes come from the volume upper
    bound), fed every update, and handed to `decompose` afterwards.  A FAIL
    during recovery consumes one spare state of the same slot kind; running
    out raises `SketchFailExhausted`.

    Before any state exists, the pools add up what every state would hold
    once all its slots are touched (`stream.worst_case_bytes`) and raise
    `PoolTooLarge` above `POOL_BYTE_CAP`, so a configuration that needs
    gigabytes fails at once instead of exhausting memory during the feed.
    """

    def __init__(self, n: int, params: DecompParams, spares: int = 1):
        self.n = n
        self.params = params
        self.sched = make_schedule(params, n)
        self.fail_retries = 0
        self._cache: dict[tuple, Graph] = {}

        seed, sched = params.seed, self.sched
        alg1 = [
            _slot_params(params, sched.psi(0), prf(seed, _PHASE1_TAG, d))
            for d in range(1, sched.depth_bound + 1)
        ]
        alg2 = {
            j: [
                _slot_params(params, sched.psi(j), prf(seed, _PHASE2_TAG, j, h))
                for h in range(1, sched.alg2_pool_size + 1)
            ]
            for j in range(1, params.quality_k + 2)
        }
        spare = {
            j: [_slot_params(params, sched.psi(j), prf(seed, _SPARE_TAG, j, s))
                for s in range(spares)]
            for j in range(params.quality_k + 2)
        }
        every = alg1 + [sp for group in (*alg2.values(), *spare.values()) for sp in group]
        need = sum(worst_case_bytes(n, sp) for sp in every)
        if need > POOL_BYTE_CAP:
            raise PoolTooLarge(
                f"stream pools of {len(every)} states over {n} vertices could need "
                f"{need / 2**30:.3g} GiB, above the cap of {POOL_BYTE_CAP / 2**30:.3g} GiB"
            )
        self._alg1 = [StreamState(n, sp) for sp in alg1]
        self._alg2 = {j: [StreamState(n, sp) for sp in group] for j, group in alg2.items()}
        self._spares = {j: [StreamState(n, sp) for sp in group] for j, group in spare.items()}

    def all_states(self):
        yield from self._alg1
        for states in self._alg2.values():
            yield from states
        for states in self._spares.values():
            yield from states

    def feed(self, upd) -> None:
        self.feed_many([upd])

    def feed_many(self, updates) -> None:
        """Apply the updates to every state, one state at a time.

        The states share n, so the first state's check of the pairs rejects
        a bad batch before any state changes.
        """
        arrays = update_arrays(updates)
        for st in self.all_states():
            st.apply(*arrays)

    @property
    def deg(self) -> np.ndarray:
        return self._alg1[0].deg

    def _recover(self, st: StreamState, level: int) -> Graph:
        g = st.recover_sparsifier()
        while g is None:
            if not self._spares[level]:
                raise SketchFailExhausted(
                    f"stream recovery failed with no spare left (level {level})"
                )
            self.fail_retries += 1
            st = self._spares[level].pop(0)
            g = st.recover_sparsifier()
        return g

    def phase1(self, depth: int) -> Graph:
        if not (1 <= depth <= self.sched.depth_bound):
            raise PoolExhausted(f"phase-one pool has no slot for depth {depth}")
        key = ("phase1", depth)
        if key not in self._cache:
            self._cache[key] = self._recover(self._alg1[depth - 1], 0)
        return self._cache[key]

    def phase2(self, j: int, h: int) -> Graph:
        if not (1 <= j <= self.params.quality_k + 1):
            raise PoolExhausted(f"phase-two pool has no level {j}")
        if not (1 <= h <= self.sched.alg2_pool_size):
            raise PoolExhausted(f"phase-two pool level {j} exhausted at slot {h}")
        key = ("phase2", j, h)
        if key not in self._cache:
            self._cache[key] = self._recover(self._alg2[j][h - 1], j)
        return self._cache[key]

    def memory_bytes(self) -> int:
        return sum(st.memory_bytes() for st in self.all_states())


# -- reports -------------------------------------------------------------------


@dataclass
class RunReport:
    mode: str
    seed: int
    n: int
    eps: float
    quality_k: int
    alpha: float
    b: float
    delta: float
    phi_final: float
    depth: int = 0
    iterations: dict = field(default_factory=dict)
    intercluster_volume: float | None = None
    intercluster_fraction: float | None = None
    cluster_sizes: list = field(default_factory=list)
    singleton_count: int = 0
    verdicts: list = field(default_factory=list)
    sweep_fallbacks: int = 0
    fail_retries: int = 0
    pool_alg1_used: int = 0
    pool_alg2_used: int = 0
    composition_checks: int = 0
    memory_bytes: int = 0

    def to_json(self) -> str:
        payload = dict(self.__dict__)
        payload["iterations"] = {str(k): v for k, v in sorted(self.iterations.items())}
        return json.dumps(payload, sort_keys=True)


@dataclass
class ClusterVerdict:
    size: int
    exact: bool
    min_conductance: float | None
    passed: bool


@dataclass
class VerifyReport:
    ok: bool
    volume_ok: bool
    intercluster_volume: float
    intercluster_fraction: float
    eps: float
    phi: float
    clusters: list

    def to_json(self) -> str:
        payload = dict(self.__dict__)
        payload["clusters"] = [dict(c.__dict__) for c in self.clusters]
        return json.dumps(payload, sort_keys=True)


# -- the driver ----------------------------------------------------------------


def _phi_within(G: Graph, cluster_mask: np.ndarray, S: np.ndarray) -> float:
    """Conductance of S inside G{cluster}: loops never cross, degrees kept."""
    in_s = np.zeros(G.n, dtype=bool)
    in_s[S] = True
    inside = cluster_mask[G.edge_u] & cluster_mask[G.edge_v]
    cross = inside & (in_s[G.edge_u] != in_s[G.edge_v])
    cw = float(G.edge_w[cross].sum())
    vol_s = float(G.deg[S].sum())
    vol_rest = float(G.deg[cluster_mask].sum()) - vol_s
    denom = min(vol_s, vol_rest)
    if denom <= 0:
        return math.inf
    return cw / denom


class Decomposer:
    def __init__(self, deg: np.ndarray, pools, params: DecompParams,
                 sched: Schedule, reference: Graph | None):
        self.deg = np.asarray(deg, dtype=np.float64)
        self.pools = pools
        self.params = params
        self.sched = sched
        self.reference = reference
        self.report = RunReport(
            mode=params.mode,
            seed=params.seed,
            n=int(self.deg.size),
            eps=params.eps,
            quality_k=params.quality_k,
            alpha=sched.alpha,
            b=sched.b,
            delta=sched.delta,
            phi_final=sched.phi_final,
        )

    def _vol(self, S: np.ndarray) -> float:
        return float(self.deg[S].sum())

    def _find_cut(self, H: Graph, C: np.ndarray, phi: float) -> BalancedCutOutcome:
        H_c = H.induce_with_loops(C)
        deg_local = self.deg[C]
        use_exact = self.params.mode == EXACT_MODE and C.size <= self.params.exact_cut_limit
        if use_exact:
            out = exhaustive_balanced_cut(H_c, deg_local, phi, self.params.delta)
        else:
            if self.params.mode == EXACT_MODE:
                self.report.sweep_fallbacks += 1
            try:
                out = sweep_balanced_cut(H_c, deg_local, phi, self.params.delta)
            except SweepNumericFailure:
                if C.size <= self.params.exact_cut_limit:
                    out = exhaustive_balanced_cut(H_c, deg_local, phi, self.params.delta)
                else:
                    raise
        if out.expander:
            return out
        return BalancedCutOutcome(
            False,
            cut=C[out.cut],
            sparsity_estimate=out.sparsity_estimate,
            balance=out.balance,
        )

    def _check_cut_sparsity(self, C: np.ndarray, S: np.ndarray, phi: float, used_exact: bool):
        """A returned cut must honor its advertised sparsity in G{cluster}."""
        if self.reference is None:
            return
        mask = np.zeros(self.reference.n, dtype=bool)
        mask[C] = True
        actual = _phi_within(self.reference, mask, S)
        d = self.params.delta
        if used_exact:
            bound = (1.0 + 5.0 * d) * phi
        else:
            bound = (1.0 + 6.0 * d) * self.sched.alpha * phi
        if actual > bound * (1.0 + REL_SLACK) + 1e-12:
            raise DecompositionInvariantError(
                f"returned cut has sparsity {actual:.6g} > bound {bound:.6g}"
            )
        self.report.composition_checks += 1

    def low_depth_decomposition(self, C: np.ndarray, depth: int) -> list:
        """Phase one: balanced cuts at phi_0 with one sparsifier per depth."""
        if depth > self.sched.depth_bound:
            raise PoolExhausted(
                f"recursion depth {depth} exceeds bound {self.sched.depth_bound}"
            )
        self.report.depth = max(self.report.depth, depth)
        self.report.pool_alg1_used = max(self.report.pool_alg1_used, depth)
        H = self.pools.phase1(depth)
        phi0 = self.sched.phi0
        out = self._find_cut(H, C, phi0)
        if out.expander:
            return [C]
        S = out.cut
        used_exact = (
            self.params.mode == EXACT_MODE and C.size <= self.params.exact_cut_limit
        )
        self._check_cut_sparsity(C, S, phi0, used_exact)
        vol_c = self._vol(C)
        if self._vol(S) >= (self.params.eps * self.sched.b / 4.0) * vol_c:
            rest = np.setdiff1d(C, S)
            return self.low_depth_decomposition(S, depth + 1) + self.low_depth_decomposition(
                rest, depth + 1
            )
        return self.unbalanced_cluster_decomposition(C)

    def unbalanced_cluster_decomposition(self, C0: np.ndarray) -> list:
        """Phase two: shave sub-phi_j cuts into singletons, keep the core."""
        sched = self.sched
        k = self.params.quality_k
        vol_c0 = self._vol(C0)
        inner_cap = sched.inner_bound(vol_c0)
        C = C0
        for j in range(1, k + 2):
            phi_j = sched.phi(j)
            m_j = sched.m(j, vol_c0)
            snapshot = C
            vol_snapshot = self._vol(snapshot)
            removed: list[np.ndarray] = []
            h = 0
            while True:
                h += 1
                if h > inner_cap:
                    raise DecompositionInvariantError(
                        f"inner iteration {h} exceeds bound {inner_cap} at level {j}"
                    )
                self.report.iterations[j] = self.report.iterations.get(j, 0) + 1
                self.report.pool_alg2_used += 1
                H = self.pools.phase2(j, h)
                out = self._find_cut(H, C, phi_j)
                if out.expander:
                    leftovers = np.setdiff1d(C0, C)
                    self._check_singleton_budget(C0, leftovers, vol_c0)
                    return [C] + [np.array([v], dtype=np.int64) for v in leftovers.tolist()]
                S = out.cut
                used_exact = (
                    self.params.mode == EXACT_MODE
                    and C.size <= self.params.exact_cut_limit
                )
                self._check_cut_sparsity(C, S, phi_j, used_exact)
                if self._vol(S) >= (sched.b / 2.0) * m_j:
                    C = np.setdiff1d(C, S)
                    removed.append(S)
                    self._check_composition(snapshot, vol_snapshot, removed, sched.phi(j - 1))
                else:
                    break
        raise DecompositionInvariantError(
            "phase two passed outer iteration k+1 without an expander verdict"
        )

    def _check_composition(self, snapshot: np.ndarray, vol_snapshot: float,
                           removed: list, phi_prev: float) -> None:
        """The union of one level's shaved cuts stays sparse in its snapshot."""
        if self.reference is None:
            return
        union = np.sort(np.concatenate(removed))
        vol_u = self._vol(union)
        if vol_u > vol_snapshot / 2.0 * (1.0 + REL_SLACK):
            return
        mask = np.zeros(self.reference.n, dtype=bool)
        mask[snapshot] = True
        actual = _phi_within(self.reference, mask, union)
        if actual > phi_prev * (1.0 + REL_SLACK) + 1e-12:
            raise DecompositionInvariantError(
                f"composed cut sparsity {actual:.6g} exceeds {phi_prev:.6g}"
            )
        self.report.composition_checks += 1

    def _check_singleton_budget(self, C0: np.ndarray, leftovers: np.ndarray,
                                vol_c0: float) -> None:
        vol_left = self._vol(leftovers)
        if vol_left > (self.params.eps / 2.0) * vol_c0 * (1.0 + REL_SLACK) + 1e-12:
            raise DecompositionInvariantError(
                f"phase-two singletons carry volume {vol_left:.6g} > "
                f"{self.params.eps / 2.0 * vol_c0:.6g}"
            )


# -- public entry points ---------------------------------------------------------


def decompose(source, params: DecompParams, reference_graph: Graph | None = None):
    """Run the two-phase decomposition; returns (clusters, RunReport).

    `source` is either a Graph (offline sampling of pools) or a fed
    `StreamSparsifierPools`.  When the original graph is available the
    termination and quality bounds are enforced as runtime checks; in pure
    streaming mode they are skipped.
    """
    if isinstance(source, Graph):
        G = source
        deg = G.deg
        n = G.n
        sched = make_schedule(params, n)
        pools = OfflineSparsifierPool(G, params, sched)
        reference = G if reference_graph is None else reference_graph
    elif isinstance(source, StreamSparsifierPools):
        pools = source
        if pools.params != params:
            raise GraphError("stream pools were built with different parameters")
        deg = pools.deg.astype(np.float64)
        n = pools.n
        sched = pools.sched
        reference = reference_graph
    else:
        raise GraphError("source must be a Graph or StreamSparsifierPools")

    driver = Decomposer(deg, pools, params, sched, reference)
    isolated = np.flatnonzero(deg == 0).astype(np.int64)
    active = np.flatnonzero(deg > 0).astype(np.int64)
    clusters: list[np.ndarray] = []
    if active.size:
        clusters = driver.low_depth_decomposition(active, depth=1)
    clusters = clusters + [np.array([v], dtype=np.int64) for v in isolated.tolist()]

    rep = driver.report
    rep.cluster_sizes = sorted((int(c.size) for c in clusters), reverse=True)
    rep.singleton_count = sum(1 for c in clusters if c.size == 1)
    rep.fail_retries = pools.fail_retries
    rep.memory_bytes = pools.memory_bytes()

    if reference is not None:
        total = reference.total_volume
        icv = intercluster_volume(reference, clusters)
        rep.intercluster_volume = icv
        rep.intercluster_fraction = icv / total if total > 0 else 0.0
        if icv > params.eps * total * (1.0 + REL_SLACK) + 1e-12:
            raise DecompositionInvariantError(
                f"intercluster volume {icv:.6g} exceeds eps*Vol = {params.eps * total:.6g}"
            )
        for C in clusters:
            verdict = _cluster_verdict(reference, C, sched.phi_final, params.exact_cut_limit)
            rep.verdicts.append(verdict.__dict__)
            if verdict.exact and not verdict.passed:
                raise DecompositionInvariantError(
                    f"final cluster of size {verdict.size} fails the "
                    f"{sched.phi_final:.6g}-expander check"
                )
    return clusters, rep


def _cluster_verdict(G: Graph, C: np.ndarray, phi: float, exact_limit: int) -> ClusterVerdict:
    C = np.asarray(C, dtype=np.int64)
    if C.size <= exact_limit:
        sub = G.induce_with_loops(C)
        min_phi, _ = min_conductance_bruteforce(sub)
        passed = min_phi >= phi * (1.0 - REL_SLACK)
        value = None if math.isinf(min_phi) else float(min_phi)
        return ClusterVerdict(int(C.size), True, value, bool(passed))
    sub = G.induce_with_loops(C)
    out = sweep_balanced_cut(sub, sub.deg, phi, 0.0)
    if out.expander:
        return ClusterVerdict(int(C.size), False, None, True)
    actual = sub.conductance(out.cut)
    return ClusterVerdict(int(C.size), False, float(actual),
                          bool(actual >= phi * (1.0 - REL_SLACK)))


def verify_decomposition(G: Graph, clusters, eps: float, phi: float,
                         exact_limit: int = BRUTE_FORCE_LIMIT) -> VerifyReport:
    """Check the (eps, phi)-expander-decomposition property of a partition.

    Intercluster volume is exact; per-cluster expansion is exact up to
    `exact_limit` vertices and falls back to a sweep-based estimate above
    (flagged via `exact=False` in the verdicts).
    """
    norm = check_partition(G, clusters)
    total = G.total_volume
    icv = intercluster_volume(G, norm)
    volume_ok = icv <= eps * total * (1.0 + REL_SLACK) + 1e-12
    verdicts = [_cluster_verdict(G, C, phi, exact_limit) for C in norm]
    ok = volume_ok and all(v.passed for v in verdicts)
    return VerifyReport(
        ok=bool(ok),
        volume_ok=bool(volume_ok),
        intercluster_volume=float(icv),
        intercluster_fraction=float(icv / total) if total > 0 else 0.0,
        eps=eps,
        phi=phi,
        clusters=verdicts,
    )
