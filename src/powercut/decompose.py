"""Two-phase expander decomposition driven by pools of cut sparsifiers.

Phase one recursively applies a balanced sparse cut at a fixed sparsity
target; balanced cuts split the cluster, an expander verdict keeps it, and
an unbalanced cut hands the cluster to phase two.  Phase two repeatedly
shaves off sparse cuts at geometrically decreasing sparsity targets and
volume thresholds, emitting the shaved vertices as singletons, until the
remaining core is certified an expander.

Each phase consumes sparsifiers from its own slots of one `SparsifierPools`:
one per recursion depth for phase one, one per (outer, inner) iteration for
phase two, shared across all phase-two invocations.  A slot's sparsifier is
drawn, under the slot's own parameters and by the stream's level rule, from
one net graph (`stream.NetGraph`): the input graph's pairs offline, or the
live pairs of the whole update stream.

Termination and quality bounds (recursion depth, iteration counts, the
sparse-cut composition property, the singleton volume budget, per-cluster
expansion, and the intercluster volume budget) are enforced as runtime
checks; a violation raises `DecompositionInvariantError` and means a bug or
a bad-luck sparsifier sample, never a silently wrong answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

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
# `sample` is not called here: kept for perfbench, whose tracer wraps `decompose.sample`
from .sparsify import SparsifierParams, check_upsilon_override, sample
from .stream import NetGraph, StreamError

# prf tag of each slot kind: slot (kind, *index) samples with seed
# prf(params.seed, tag, *index)
_SLOT_TAGS = {"phase1": 0xA1, "phase2": 0xA2}

EXACT_MODE = "exact"
FAST_MODE = "fast"


class PoolExhausted(RuntimeError):
    """A phase asked for more sparsifiers than its sized pool; configuration bug."""


class SketchFailExhausted(RuntimeError):
    """Never raised: stream pools draw from a net graph, which has no random
    FAIL.  Kept for perfbench, which lists it among a job's failures."""


class DecompositionInvariantError(RuntimeError):
    """A runtime check backing the termination/quality analysis failed."""


@dataclass(frozen=True)
class DecompParams:
    """What a decomposition run is given: the intercluster budget eps, the
    trade-off integer k (`quality_k`), the sparsifier's delta, the cut
    procedure (`mode`), the master seed, and the `upsilon_override` passed
    to every slot's `SparsifierParams`.  `make_schedule` derives the rest."""

    eps: float
    quality_k: int
    delta: float = 1.0 / 16.0
    mode: str = EXACT_MODE
    seed: int = 0
    upsilon_override: float | None = None

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise GraphError("need eps in (0, 1)")
        if not (0.0 < self.delta <= 1.0 / 16.0):
            raise GraphError("need delta in (0, 1/16]")
        if not isinstance(self.quality_k, int) or self.quality_k < 1:
            raise GraphError(f"need an integer quality_k >= 1, got {self.quality_k!r}")
        if self.mode not in (EXACT_MODE, FAST_MODE):
            raise GraphError(f"unknown mode {self.mode!r}")
        check_upsilon_override(self.upsilon_override)


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
    """The schedule of a run over n vertices.  alpha = 1 + 5*delta is the
    sparsity factor of the exhaustive cut; b is the balance the mode's cut
    procedure guarantees (1 for the exhaustive cut, 1/2 for the sweep); a
    simple graph on n vertices has volume below o_vol = max(n, 2)^2."""
    return Schedule(
        eps=params.eps,
        quality_k=params.quality_k,
        alpha=1.0 + 5.0 * params.delta,
        b=1.0 if params.mode == EXACT_MODE else 0.5,
        delta=params.delta,
        o_vol=float(max(n, 2)) ** 2,
    )


# -- sparsifier pools ----------------------------------------------------------


def _slot_level(key: tuple) -> int:
    """Accuracy level j of a slot, sampled at psi(j): 0 in phase one."""
    return 0 if key[0] == "phase1" else key[1]


class SparsifierPools:
    """The sparsifier of every slot the decomposition consumes.

    Slots are keyed ("phase1", depth) for phase one and ("phase2", j, h)
    for inner iteration h of phase two's outer iteration j; phase two's slots
    are shared by all its invocations.  A slot's sparsifier is drawn on first
    use and cached, at accuracy psi(0) in phase one and psi(j) in phase two.
    Asking for a slot beyond the schedule's bounds raises `PoolExhausted`.

    Every slot draws by the stream's level rule, under its own parameters and
    whatever its Y, from one `stream.NetGraph`, which depends on no seed:

    * `SparsifierPools(n, params)` starts from the empty stream; the pools
      are fed every update, then handed to `decompose`.  A draw fails only
      when the fed stream's net graph is not simple (`StreamError`).  Pools
      or a batch above `stream.POOL_BYTE_CAP` bytes (8n, and 16 per live pair
      and batch row) raise `stream.PoolTooLarge` before any change.
    * `SparsifierPools.offline(G, params, sched)` holds G's pairs
      (`NetGraph.of_graph`) and takes no updates; `decompose` builds it from
      a Graph source.

    `memory_bytes` is what the net graph holds: 8n + 16 bytes per pair.
    """

    def __init__(self, n: int, params: DecompParams):
        self._net, self.params, self.sched = NetGraph(n), params, make_schedule(params, n)
        self.n, self.deg, self._cache = n, self._net.deg, {}

    @classmethod
    def offline(cls, G: Graph, params: DecompParams, sched: Schedule) -> "SparsifierPools":
        """Pools that draw from G's net graph under `sched`."""
        pools = cls.__new__(cls)
        pools._net, pools.params, pools.sched = NetGraph.of_graph(G), params, sched
        pools.n, pools.deg, pools._cache = G.n, G.deg, {}
        return pools

    def _slot_params(self, key: tuple) -> SparsifierParams:
        """Sparsifier parameters of slot `key`."""
        p = self.params
        return SparsifierParams(
            delta=p.delta,
            eps=self.sched.psi(_slot_level(key)),
            upsilon_override=p.upsilon_override,
            seed=prf(p.seed, _SLOT_TAGS[key[0]], *key[1:]),
        )

    def all_states(self):
        """The one net graph the pools hold."""
        yield self._net

    def feed(self, row) -> None:
        """Apply one (u, v, delta) row to the net graph: a batch of one."""
        self.feed_many([row])

    def feed_many(self, updates) -> None:
        """Apply (u, v, delta) rows to the net graph as one checked batch."""
        self._net.process_many(updates)

    def phase1(self, depth: int) -> Graph:
        if not (1 <= depth <= self.sched.depth_bound):
            raise PoolExhausted(f"phase-one pool has no slot for depth {depth}")
        return self._fetch(("phase1", depth))

    def phase2(self, j: int, h: int) -> Graph:
        if not (1 <= j <= self.sched.quality_k + 1):
            raise PoolExhausted(f"phase-two pool has no level {j}")
        if not (1 <= h <= self.sched.alg2_pool_size):
            raise PoolExhausted(f"phase-two pool level {j} exhausted at slot {h}")
        return self._fetch(("phase2", j, h))

    def _fetch(self, key: tuple) -> Graph:
        if key not in self._cache:
            g = self._net.recover_sparsifier(self._slot_params(key))
            if g is None:
                raise StreamError(f"slot {key} reads a pair whose net count is not 1: "
                                  f"the fed stream's net graph is not simple")
            self._cache[key] = g
        return self._cache[key]

    def memory_bytes(self) -> int:
        return self._net.memory_bytes()


# old names kept for perfbench, whose tracer wraps each name's own `phase1`/`phase2`
StreamSparsifierPools = OfflineSparsifierPool = SparsifierPools


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
    fail_retries: int = 0  # always 0: a net-graph draw has no FAIL to retry
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


def _phi_within(G: Graph, C: np.ndarray, S: np.ndarray) -> float:
    """Conductance of S inside G{C}: loops never cross, degrees kept."""
    in_c, in_s = np.zeros(G.n, dtype=bool), np.zeros(G.n, dtype=bool)
    in_c[C] = in_s[S] = True
    inside = in_c[G.edge_u] & in_c[G.edge_v]
    cross = inside & (in_s[G.edge_u] != in_s[G.edge_v])
    cw = float(G.edge_w[cross].sum())
    vol_s = float(G.deg[S].sum())
    vol_rest = float(G.deg[in_c].sum()) - vol_s
    denom = min(vol_s, vol_rest)
    if denom <= 0:
        return math.inf
    return cw / denom


class Decomposer:
    def __init__(self, pools: SparsifierPools, reference: Graph | None):
        self.pools = pools
        self.deg = np.asarray(pools.deg, dtype=np.float64)
        self.params = pools.params
        self.sched = pools.sched
        self.reference = reference
        params, sched = self.params, self.sched
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
        """Balanced sparse cut of C on H, in global ids, checked against its
        exact or sweep sparsity bound in the reference graph."""
        H_c = H.induce_with_loops(C)
        deg_local = self.deg[C]
        use_exact = self.params.mode == EXACT_MODE and C.size <= BRUTE_FORCE_LIMIT
        if use_exact:
            out = exhaustive_balanced_cut(H_c, deg_local, phi, self.params.delta)
        else:
            if self.params.mode == EXACT_MODE:
                self.report.sweep_fallbacks += 1
            try:
                out = sweep_balanced_cut(H_c, deg_local, phi)
            except SweepNumericFailure:
                if C.size <= BRUTE_FORCE_LIMIT:
                    out = exhaustive_balanced_cut(H_c, deg_local, phi, self.params.delta)
                else:
                    raise
        if out.expander:
            return out
        S = C[out.cut]
        self._check_cut_sparsity(C, S, phi, use_exact)
        return replace(out, cut=S)

    def _check_cut_sparsity(self, C: np.ndarray, S: np.ndarray, phi: float, used_exact: bool):
        """A returned cut must honor its advertised sparsity in G{cluster}."""
        if self.reference is None:
            return
        actual = _phi_within(self.reference, C, S)
        alpha, d = self.sched.alpha, self.params.delta
        bound = alpha * phi if used_exact else (1.0 + 6.0 * d) * alpha * phi
        if actual > bound * (1.0 + REL_SLACK) + 1e-12:
            raise DecompositionInvariantError(
                f"returned cut has sparsity {actual:.6g} > bound {bound:.6g}"
            )
        self.report.composition_checks += 1

    def low_depth_decomposition(self, C: np.ndarray, depth: int) -> list:
        """Phase one: balanced cuts at phi_0 with one sparsifier per depth;
        the pools raise `PoolExhausted` past the depth bound."""
        self.report.depth = max(self.report.depth, depth)
        self.report.pool_alg1_used = max(self.report.pool_alg1_used, depth)
        H = self.pools.phase1(depth)
        phi0 = self.sched.phi0
        out = self._find_cut(H, C, phi0)
        if out.expander:
            return [C]
        S = out.cut
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
        actual = _phi_within(self.reference, snapshot, union)
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

    `source` is either a Graph, drawn from by offline pools, or fed stream
    `SparsifierPools`.  When the original graph is available the
    termination and quality bounds are enforced as runtime checks; in pure
    streaming mode they are skipped.
    """
    pools, reference = source, reference_graph
    if isinstance(source, Graph):
        pools = SparsifierPools.offline(source, params, make_schedule(params, source.n))
        reference = source if reference_graph is None else reference_graph
    elif not isinstance(source, SparsifierPools):
        raise GraphError("source must be a Graph or SparsifierPools")
    if pools.params != params:
        raise GraphError("pools were built with different parameters")
    if reference is not None and reference.n != pools.n:
        raise GraphError(
            f"reference graph has {reference.n} vertices, the source {pools.n}")

    driver = Decomposer(pools, reference)
    deg, sched = driver.deg, driver.sched
    isolated = np.flatnonzero(deg == 0).astype(np.int64)
    active = np.flatnonzero(deg > 0).astype(np.int64)
    clusters: list[np.ndarray] = []
    if active.size:
        clusters = driver.low_depth_decomposition(active, depth=1)
    clusters = clusters + [np.array([v], dtype=np.int64) for v in isolated.tolist()]

    rep = driver.report
    rep.cluster_sizes = sorted((int(c.size) for c in clusters), reverse=True)
    rep.singleton_count = sum(1 for c in clusters if c.size == 1)
    rep.memory_bytes = pools.memory_bytes()

    if reference is not None:
        check = verify_decomposition(reference, clusters, params.eps, sched.phi_final)
        rep.intercluster_volume = check.intercluster_volume
        rep.intercluster_fraction = check.intercluster_fraction
        rep.verdicts = [verdict.__dict__ for verdict in check.clusters]
        if not check.volume_ok:
            raise DecompositionInvariantError(
                f"intercluster volume {check.intercluster_volume:.6g} exceeds "
                f"eps*Vol = {params.eps * reference.total_volume:.6g}"
            )
        for verdict in check.clusters:
            if verdict.exact and not verdict.passed:
                raise DecompositionInvariantError(
                    f"final cluster of size {verdict.size} fails the "
                    f"{sched.phi_final:.6g}-expander check"
                )
    return clusters, rep


def _cluster_verdict(G: Graph, C: np.ndarray, phi: float) -> ClusterVerdict:
    C = np.asarray(C, dtype=np.int64)
    sub = G.induce_with_loops(C)
    if C.size <= BRUTE_FORCE_LIMIT:
        min_phi, _ = min_conductance_bruteforce(sub)
        passed = min_phi >= phi * (1.0 - REL_SLACK)
        value = None if math.isinf(min_phi) else float(min_phi)
        return ClusterVerdict(int(C.size), True, value, bool(passed))
    out = sweep_balanced_cut(sub, sub.deg, phi)
    if out.expander:
        return ClusterVerdict(int(C.size), False, None, True)
    actual = sub.conductance(out.cut)
    return ClusterVerdict(int(C.size), False, float(actual),
                          bool(actual >= phi * (1.0 - REL_SLACK)))


def verify_decomposition(G: Graph, clusters, eps: float, phi: float) -> VerifyReport:
    """Check the (eps, phi)-expander-decomposition property of a partition.

    Intercluster volume is exact; per-cluster expansion is exact up to
    `BRUTE_FORCE_LIMIT` vertices and decided by one sweep above (flagged via
    `exact=False` in the verdicts).  A sweep cut refutes the cluster.  An
    Expander verdict is a proof when the sweep's Cheeger certificate gave it
    (clusters of at most `cuts.CERTIFY_LIMIT` vertices whose lambda_2 / 2
    clears phi) and otherwise an estimate: the sweeps along the cluster's
    Fiedler vector (`eigsh`) found no cut below phi.  The verdict does not
    yet say which.  Raises `SweepNumericFailure` when that eigensolve does
    not converge.
    """
    norm = check_partition(G, clusters)
    total = G.total_volume
    icv = intercluster_volume(G, norm)
    volume_ok = icv <= eps * total * (1.0 + REL_SLACK) + 1e-12
    verdicts = [_cluster_verdict(G, C, phi) for C in norm]
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
