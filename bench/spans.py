"""Spans around hedgecut's public functions, installed from the benchmark.

Each wrapped call records (name, parent span, start, end) in flat arrays
that stay in memory until the run ends.  A function imported into other
modules with ``from .graph import ...`` is replaced there too, so calls
are caught whichever module makes them.  Self time is a span's duration
minus the durations of its child spans; calls run on one thread, so the
children of a span never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

TARGETS = {
    "cli": ("main",),
    "hgformat": ("parse", "emit"),
    "graph": ("build_graph", "hedge_view", "remove_hedges", "is_connected", "graph_rank_nullity",
              "degree_summary"),
    "contraction": ("contract_hedge", "contract_edge", "contraction_sequence", "cleanup"),
    "adjacency": ("adjacency_graph", "greedy_relabel"),
    "connectivity": ("hedge_connectivity", "brute_force_connectivity", "ordinary_edge_min_cut",
                     "randomized_connectivity", "randomized_contraction_cut", "validate_certificate"),
    "audit": ("audit_theorem", "format_verdict", "parse_verdict", "verify_certificate", "instance_digest"),
}
THEOREM_PREFIX = "audit.audit_theorem."
DERIVED = (("connectivity.subsets_tried", "count", "lower"),
           ("contraction.steps_per_trial", "count", "lower"),
           ("connectivity.trial_success_ratio", "ratio", "higher"),
           ("connectivity.exact_frac", "ratio", "higher"),
           ("trace.overhead_frac", "ratio", "lower"))


def span_names(theorems) -> list[str]:
    """Every span name, ``audit.audit_theorem`` split into one span per claim."""
    names = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns if fn != "audit_theorem"]
    return names + ["graph.HedgeGraph"] + [THEOREM_PREFIX + t for t in theorems]


class Tracer:
    def __init__(self, names: list[str]):
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.reference = 0  # lambda of the instance the current op runs on
        self.trials = 0
        self.trial_hits = 0

    def wrap(self, fn, name_of):
        """Wrap ``fn``; ``name_of(args)`` gives the span name index of one call."""
        span_name, parent, start, end, stack = self.span_name, self.parent, self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_of(args))
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def _count_trial(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cert = fn(*args, **kwargs)
            self.trials += 1
            self.trial_hits += cert.size == self.reference
            return cert
        return counted

    def install(self) -> None:
        """Replace every public target in every hedgecut module, and HedgeGraph.__init__."""
        modules = [m for name, m in sys.modules.items() if name == "hedgecut" or name.startswith("hedgecut.")]
        theorem_id = sys.modules["hedgecut.audit"].TheoremId
        for mod_name, fns in TARGETS.items():
            home = sys.modules[f"hedgecut.{mod_name}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                if fn_name == "audit_theorem":
                    index = {t.value: self.index[THEOREM_PREFIX + t.value] for t in theorem_id}
                    wrapped = self.wrap(orig, lambda args, index=index: index[theorem_id(args[0]).value])
                else:
                    target = orig if fn_name != "randomized_contraction_cut" else self._count_trial(orig)
                    wrapped = self.wrap(target, lambda args, i=self.index[f"{mod_name}.{fn_name}"]: i)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapped)
        graph_cls = sys.modules["hedgecut.graph"].HedgeGraph
        hedge_graph = self.index["graph.HedgeGraph"]
        graph_cls.__init__ = self.wrap(graph_cls.__init__, lambda args: hedge_graph)

    def summarize(self) -> dict[str, float]:
        """Per-name self seconds and call counts, plus the work counters derived from spans."""
        count = len(self.span_name)
        names, parent = self.span_name, self.parent
        dur = [self.end[i] - self.start[i] for i in range(count)]
        own = list(dur)
        brute, rcut = self.index["connectivity.brute_force_connectivity"], self.index["connectivity.randomized_contraction_cut"]
        remove, contract = self.index["graph.remove_hedges"], self.index["contraction.contract_hedge"]
        in_brute, in_trial = bytearray(count), bytearray(count)
        subsets = steps = 0
        for i in range(count):
            p = parent[i]
            if p >= 0:
                own[p] -= dur[i]
                in_brute[i] = in_brute[p] or names[p] == brute
                in_trial[i] = in_trial[p] or names[p] == rcut
                subsets += in_brute[i] and names[i] == remove
                steps += in_trial[i] and names[i] == contract
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(count):
            self_ns[names[i]] += own[i]
            calls[names[i]] += 1
        metrics: dict[str, float] = {}
        for k, name in enumerate(self.names):
            metrics[f"{name}.self_s"] = self_ns[k] / 1e9
            metrics[f"{name}.calls"] = calls[k]
        metrics["connectivity.subsets_tried"] = subsets
        metrics["contraction.steps_per_trial"] = steps / calls[rcut] if calls[rcut] else 0.0
        metrics["connectivity.trial_success_ratio"] = self.trial_hits / self.trials if self.trials else 0.0
        return metrics

    def inclusive_share(self, prefixes: tuple[str, ...]) -> dict[str, float]:
        """Share of the time of top-level spans spent inside spans named with each prefix."""
        count = len(self.span_name)
        top = sum(self.end[i] - self.start[i] for i in range(count) if self.parent[i] < 0)
        shares = {}
        for prefix in prefixes:
            ids = {k for k, name in enumerate(self.names) if name.startswith(prefix)}
            inside = bytearray(count)
            total = 0
            for i in range(count):
                p = self.parent[i]
                inside[i] = self.span_name[i] in ids or (p >= 0 and inside[p])
                if self.span_name[i] in ids and not (p >= 0 and inside[p]):
                    total += self.end[i] - self.start[i]
            shares[prefix] = total / top if top else 0.0
        return shares

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span; times are nanoseconds from the first span's start."""
        origin = self.start[0] if len(self.start) else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as handle:
            json.dump({"meta": meta, "names": self.names, "span_name": self.span_name.tolist(),
                       "parent": self.parent.tolist(), "start_ns": [t - origin for t in self.start],
                       "end_ns": [t - origin for t in self.end]}, handle, separators=(",", ":"))
