"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions and methods of the powercut
modules with timing wrappers, in the namespace that looks each name up, and
`Tracer.uninstall` puts the originals back.  Spans nest on a stack, so a
layer's self time is its span minus the wrapped spans inside it.  Counters
are taken at the same boundaries.  Nothing inside `src/powercut` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, parent index, start, end]
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []  # open span indices
        self._child_s: list = []  # per span: time covered by its children
        self._patches: list = []

    # -- spans ----------------------------------------------------------------

    def reset(self) -> None:
        """Start a new job; the previous job's span list stays with its holder."""
        self.spans = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self._child_s = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._child_s.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[3] = end
        self._stack.pop()
        dur = end - span[2]
        self.self_s[span[0]] += dur - self._child_s[idx]
        self.total_s[span[0]] += dur
        self.counts[span[0] + ".calls"] += 1
        if span[1] >= 0:
            self._child_s[span[1]] += dur

    def root_time(self) -> float:
        """Time spent inside outermost wrapped spans."""
        return sum(s[3] - s[2] for s in self.spans if s[1] < 0)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of `owner.attr`; `count(counts, args, result)`
        adds layer-specific counters after the call returns."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        self._patch(owner, attr, orig, wrapper)

    def wrap_generator(self, owner, attr: str, name: str, count=None) -> None:
        """Time each `next()` on the generator `owner.attr` returns."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            gen = orig(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                if count is not None:
                    count(self.counts, args, item)
                yield item

        self._patch(owner, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        # the package's `decompose` function shadows the module attribute
        dmod = importlib.import_module("powercut.decompose")
        gmod = importlib.import_module("powercut.graph")
        cmod = importlib.import_module("powercut.cuts")
        smod = importlib.import_module("powercut.sparsify")
        kmod = importlib.import_module("powercut.sketch")
        tmod = importlib.import_module("powercut.stream")

        def masks(counts, args, item):
            counts["graph.cuts_enumerated"] += int(item[0].size)

        def items(counts, args, result):
            counts["sketch.update_many_items"] += len(args[1])

        def fails(key):
            def count(counts, args, result):
                if result is None:
                    counts[key] += 1
            return count

        def applied(counts, args, result):
            counts["stream.updates_applied"] += 1

        def applied_many(counts, args, result):
            counts["stream.updates_applied"] += len(args[1])

        self.wrap(gmod.Graph, "__init__", "graph.build")
        self.wrap(gmod.Graph, "induce_with_loops", "graph.induce")
        # a module that imported a name looks it up in its own namespace
        for mod in (gmod, cmod, smod):
            self.wrap_generator(mod, "enumerate_cut_stats", "graph.enumerate", masks)
        self.wrap(dmod, "min_conductance_bruteforce", "graph.bruteforce")

        self.wrap(kmod.SparseRecoverySketch, "__init__", "sketch.init")
        self.wrap(kmod.SparseRecoverySketch, "update", "sketch.update")
        self.wrap(kmod.SparseRecoverySketch, "update_many", "sketch.update_many", items)
        self.wrap(kmod.SparseRecoverySketch, "recover", "sketch.recover",
                  fails("sketch.recover_fails"))

        self.wrap(tmod.StreamState, "process", "stream.process", applied)
        self.wrap(tmod.StreamState, "process_many", "stream.process_many", applied_many)
        self.wrap(tmod.StreamState, "recover_sparsifier", "stream.recover",
                  fails("stream.recover_fails"))

        self.wrap(dmod, "sample", "sparsify.sample")
        self.wrap(dmod, "exhaustive_balanced_cut", "cuts.exhaustive")
        self.wrap(dmod, "sweep_balanced_cut", "cuts.sweep")

        self.wrap(dmod, "decompose", "decompose.decompose")
        self.wrap(dmod, "verify_decomposition", "decompose.verify")
        self.wrap(dmod.StreamSparsifierPools, "feed", "decompose.feed")
        self.wrap(dmod.StreamSparsifierPools, "feed_many", "decompose.feed")
        for pool in (dmod.StreamSparsifierPools, dmod.OfflineSparsifierPool):
            self.wrap(pool, "phase1", "decompose.pool_fetch")
            self.wrap(pool, "phase2", "decompose.pool_fetch")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output ---------------------------------------------------------------

    @staticmethod
    def write_spans(spans, path) -> None:
        """Spans as [name, parent, start_s, end_s], times relative to the first."""
        t0 = spans[0][2] if spans else 0.0
        rows = [[n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in spans]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"], "spans": rows}, f)
            f.write("\n")
