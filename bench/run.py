"""hedgecut benchmark: one closed-loop client calling the package in-process.

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from its
src/ directory.  One op of a workload is always the same kind of call:

  exact    `connectivity <file>` on instances that auto sends to subset
           enumeration, and a minority it sends to the min-cut fast path
  trials   `connectivity <file> --trials 8 --seed S` on planted instances
           with more than 20 labels, which auto sends to contraction trials
  audit    `audit <file> --theorem all` on small random instances
  recheck  parse_verdict + verify_certificate on one committed verdict record

Every answer is checked by check.py.  With --trace 0 the loop runs for
--seconds and prints the end-to-end metrics; with --trace 1 a fixed list
of ops runs once untraced and once traced, and the per-layer metrics are
printed.  The last stdout line is the JSON result; the line before it
holds the run metadata.  Spans of a traced run go to
.bench_out/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
from spans import DERIVED, Tracer, span_names  # noqa: E402

WORKLOADS = ("exact", "trials", "audit", "recheck")
TRIALS_PER_OP = 8
SETUP_REPEATS = 11
CAL_REF_S = 0.0035  # typical time of the Clock kernel on the reference machine (README)
CAL_EVERY_S = 0.25
# layers whose inclusive share of traced op time shows which workload isolates which layer
SHARE_PREFIXES = ("connectivity.brute_force_connectivity", "connectivity.ordinary_edge_min_cut",
                  "connectivity.randomized_connectivity", "audit.audit_theorem.", "audit.verify_certificate")
TRACE_PASSES = {"exact": 1, "trials": 1, "audit": 2, "recheck": 6}  # about 15 s traced + untraced


# ------------------------------------------------------------------ inputs

def _shuffled(items: list, seed: int) -> list:
    items = list(items)
    gen.SplitMix(gen.derive(seed, 2)).shuffle(items)
    return items


def _trials_family(seed: int) -> list[dict]:
    """24 planted instances per cut size k = 1..4: two halves of 20-40 vertices,
    each 5 edge-disjoint spanning trees split into 2 labels, joined by k labels.
    Half sizes follow a fixed grid, so only the structure depends on the seed."""
    out = []
    for k in range(1, 5):
        for i in range(24):
            rng = gen.SplitMix(gen.derive(seed, 3, k, i))
            halves = (20 + 20 * (i % 12) // 11, 20 + 20 * (7 * i % 12) // 11)
            n, edges = gen.planted(rng, halves, 5, [2] * 5, k)
            out.append({"id": f"trials-k{k}-{i:02d}", "stratum": f"k{k}", "lambda": k,
                        "text": gen.to_hg1(n, edges)})
    return _shuffled(out, seed)


def load_inputs(workload: str, seed: int) -> list[dict]:
    """The run's op inputs: instances (with a file) or, for recheck, verdict records."""
    if workload == "trials":
        instances = _trials_family(seed)
    else:
        pool = json.loads((BENCH / "data" / f"{workload}.json").read_text(encoding="ascii"))
        instances = _shuffled(pool["instances"], seed)
    for inst in instances:
        inst["graph"] = gen.parse_hg1(inst["text"])
    if workload != "recheck":
        folder = OUT / "inputs" / workload
        folder.mkdir(parents=True, exist_ok=True)
        for inst in instances:
            inst["path"] = str(folder / f"{inst['id']}.hg")
            Path(inst["path"]).write_text(inst["text"], encoding="ascii")
        return instances
    chosen = {inst["id"] for inst in instances}
    records = [_record(pool["instances"][i], header) for i, header in pool["records"]
               if pool["instances"][i]["id"] in chosen]
    gen.SplitMix(gen.derive(seed, 4)).shuffle(records)
    return records


def _record(inst: dict, header: str) -> dict:
    return {"inst": inst, "text": f"{header}\ninstance-begin\n{inst['text']}instance-end\n",
            "fields": check.verdict_fields(header)}


def size_ranges(instances: list[dict]) -> dict:
    graphs = [inst["graph"] for inst in instances]
    stats = {"n": [n for n, _ in graphs], "m": [len(e) for _, e in graphs],
             "labels": [len(gen.label_order(e)) for _, e in graphs]}
    return {key: [min(vals), max(vals)] for key, vals in stats.items()}


# --------------------------------------------------------------------- ops

class Ops:
    """Runs op i of a workload and checks its answer."""

    def __init__(self, workload: str, seed: int, inputs: list[dict]):
        import hedgecut.audit
        import hedgecut.cli
        self.cli, self.audit = hedgecut.cli, hedgecut.audit
        self.workload, self.seed, self.inputs = workload, seed, inputs
        self.cache: dict = {}
        self.tracer: Tracer | None = None

    def cli_call(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def recheck_call(self, text: str):
        verdict = self.audit.parse_verdict(text)
        return verdict, self.audit.verify_certificate(verdict)

    def run(self, i: int):
        item = self.inputs[i % len(self.inputs)]
        if self.workload == "recheck":
            return self.recheck_call(item["text"])
        if self.tracer is not None:
            self.tracer.reference = item["lambda"]
        if self.workload == "exact":
            return self.cli_call(["connectivity", item["path"]])
        if self.workload == "trials":
            return self.cli_call(["connectivity", item["path"], "--trials", str(TRIALS_PER_OP),
                                  "--seed", str(gen.derive(self.seed, 5, i) >> 1)])
        return self.cli_call(["audit", item["path"], "--theorem", "all"])

    def check(self, i: int, result) -> check.Outcome:
        item = self.inputs[i % len(self.inputs)]
        if self.workload == "recheck":
            return check.check_recheck(item, *result)
        if self.workload == "trials":
            return check.check_connectivity(item, *result, golden=False)
        key = (item["id"], *result)  # exact and audit answers are deterministic
        if key not in self.cache:
            self.cache[key] = (check.check_connectivity(item, *result, golden=True)
                               if self.workload == "exact" else check.check_audit(item, *result))
        return self.cache[key]

    def timed(self, i: int) -> tuple[int, check.Outcome]:
        t0 = perf_counter_ns()
        try:
            result = self.run(i)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            return perf_counter_ns() - t0, check.fail(f"raised {type(exc).__name__}: {exc}")
        latency = perf_counter_ns() - t0
        try:
            return latency, self.check(i, result)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return latency, check.fail(f"output the checks cannot parse: {exc!r}")


class Tally:
    def __init__(self):
        # flat arrays, so peak RSS does not grow with the number of ops a run makes
        self.latency_ns = array("q")
        self.scaled_ms = array("d")  # latency at reference speed, filled block by block
        self.failed = self.answers = self.hits = self.exact = 0
        self.reasons: dict[str, int] = {}

    def add(self, latency: int, outcome: check.Outcome) -> None:
        self.latency_ns.append(latency)
        self.answers += outcome.answers
        self.hits += outcome.hits
        self.exact += outcome.exact
        if not outcome.ok:
            self.failed += 1
            self.reasons[outcome.reason] = self.reasons.get(outcome.reason, 0) + 1


# ------------------------------------------------------------------ timing

class Clock:
    """Follows the machine's speed by timing a fixed piece of the benchmark's own work.

    On a shared machine other tenants slow every Python process, by up to
    1.7x for tens of seconds at a time, which no run length averages out.
    The kernel (gen.enumerate_cut on a fixed instance: union-find, sets and
    tuples, like the package's hot loops) slows with it, so times are
    reported at reference speed: multiplied by CAL_REF_S over the kernel's
    time measured next to them.  Raw times go to the run metadata.
    """

    def __init__(self):
        self.graph = gen.planted(gen.SplitMix(7), (8, 8), 3, [3, 3, 3], 4)
        self.factors: list[float] = []

    def factor(self) -> float:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            gen.enumerate_cut(*self.graph, limit=150)
            times.append(perf_counter() - t0)
        self.factors.append(CAL_REF_S / statistics.median(times))
        return self.factors[-1]


class Meter:
    """Times ops in blocks of about CAL_EVERY_S, each scaled by the clock read on both sides of it."""

    def __init__(self, ops: Ops, clock: Clock):
        self.ops, self.clock, self.tally = ops, clock, Tally()
        self.raw_s = self.scaled_s = 0.0
        gc.collect()
        self.before = clock.factor()
        self.block_start, self.first = perf_counter(), 0

    def close_block(self) -> None:
        elapsed = perf_counter() - self.block_start
        after = self.clock.factor()
        scale = (self.before + after) / 2
        lat = self.tally.latency_ns
        self.tally.scaled_ms.extend(t * scale / 1e6 for t in lat[self.first:])
        self.raw_s += elapsed
        self.scaled_s += elapsed * scale
        self.before, self.first, self.block_start = after, len(lat), perf_counter()

    def run(self, *, passes: int | None = None, seconds: float | None = None) -> "Meter":
        """Whole passes over the inputs, a fixed number or until ``seconds`` have gone by,
        so every input weighs the same in the percentiles."""
        size, start, done = len(self.ops.inputs), perf_counter(), 0
        while (done < passes) if passes is not None else (done == 0 or perf_counter() - start < seconds):
            for i in range(done * size, (done + 1) * size):
                self.tally.add(*self.ops.timed(i))
                if perf_counter() - self.block_start >= CAL_EVERY_S:
                    self.close_block()
            done += 1
        self.close_block()
        return self


def measure_setup(clock: Clock) -> tuple[float, list[float]]:
    """Median time of a fresh interpreter importing hedgecut.cli, at reference speed.

    One warm start first, so compiling the bytecode cache is not counted.
    The raw median is scaled once, by the median of the clock reads taken
    between the starts: one read per start would add the kernel's noise."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import hedgecut.cli"]
    times, factors = [], []
    for rep in range(SETUP_REPEATS + 1):
        factors.append(clock.factor())
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if rep:
            times.append(perf_counter() - t0)
    factors.append(clock.factor())
    return statistics.median(times) * statistics.median(factors[1:]), times


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def metadata(args, tally: Tally, extra: dict) -> dict:
    lat = tally.latency_ns
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "platform": platform.platform(), "git_commit": git_commit(),
            "client": "one closed-loop client, single process, single thread",
            "samples": {"ops": len(lat), "answers": tally.answers},
            "failure_reasons": tally.reasons, **extra}


def _percentiles(values_ms: list[float]) -> tuple[float, float]:
    ordered = sorted(values_ms)
    return statistics.median(ordered), statistics.quantiles(ordered, n=10)[-1] if len(ordered) > 1 else ordered[0]


def end_to_end(meter: Meter, setup_s: float) -> tuple[dict, dict]:
    tally = meter.tally
    p50, p90 = _percentiles(tally.scaled_ms)
    ops = len(tally.scaled_ms)
    values = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ops_per_s": (ops / meter.scaled_s, "1/s"),
        "ok_frac": ((ops - tally.failed) / ops, "ratio"),
        "lambda_hit_frac": (tally.hits / tally.answers if tally.answers else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw50, raw90 = _percentiles([t / 1e6 for t in tally.latency_ns])
    detail = {"percentile_samples": {"op_p50_ms": {"samples": ops, "beyond": sum(x > p50 for x in tally.scaled_ms)},
                                     "op_p90_ms": {"samples": ops, "beyond": sum(x > p90 for x in tally.scaled_ms)},
                                     "lambda_hit_frac": {"samples": tally.answers}},
              "raw": {"op_p50_ms": raw50, "op_p90_ms": raw90, "ops_per_s": ops / meter.raw_s,
                      "timed_loop_s": meter.raw_s}}
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}, detail


# -------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hedgecut" / "__init__.py").is_file():
        print(f"error: no hedgecut package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and the interpreters it starts, so the clock
        # kernel always shares a CPU, and that CPU's load, with what it scales.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    clock = Clock()
    setup_s, setup_times = measure_setup(clock) if not args.trace else (0.0, [])
    inputs = load_inputs(args.workload, args.seed)
    ops = Ops(args.workload, args.seed, inputs)

    exact_pool = json.loads((BENCH / "data" / "exact.json").read_text(encoding="ascii"))["instances"]
    recheck_pool = json.loads((BENCH / "data" / "recheck.json").read_text(encoding="ascii"))
    probe = dict(exact_pool[0], graph=gen.parse_hg1(exact_pool[0]["text"]))
    record = next(_record(recheck_pool["instances"][i], h) for i, h in recheck_pool["records"]
                  if " theorem=T1_MIN_DEG_BOUND " in h)
    selftest = check.selftest(probe, record, ops.recheck_call)

    sizes = size_ranges([item.get("inst", item) for item in inputs])
    extra = {"selftest": selftest, "inputs": len(inputs), "instance_sizes": sizes}
    if not args.trace:
        for i in range(3):  # warm-up, not counted
            ops.timed(i)
        meter = Meter(ops, clock).run(seconds=args.seconds)
        tally = meter.tally
        metrics, detail = end_to_end(meter, setup_s)
        detail["raw"]["setup_s"] = statistics.median(setup_times)
        extra.update(detail, setup_samples_raw_s=setup_times)
    else:
        passes = TRACE_PASSES[args.workload]
        plain = Meter(ops, clock).run(passes=passes)
        tracer = Tracer(span_names([t.value for t in ops.audit.TheoremId]))
        tracer.install()
        ops.tracer = tracer
        traced = Meter(ops, clock).run(passes=passes)
        tally = traced.tally
        tally.failed += plain.tally.failed  # both passes are checked and count as attempted
        tally.latency_ns.extend(plain.tally.latency_ns)
        metrics_raw = tracer.summarize()
        metrics_raw["connectivity.exact_frac"] = tally.exact / tally.answers if tally.answers else 0.0
        metrics_raw["trace.overhead_frac"] = traced.scaled_s / plain.scaled_s - 1
        units = {name: unit for name, unit, _ in DERIVED}
        metrics = {name: {"value": value, "unit": units.get(name, "s" if name.endswith(".self_s") else "count")}
                   for name, value in metrics_raw.items()}
        extra.update(traced_ops=len(tally.latency_ns), untraced_s=plain.raw_s, traced_s=traced.raw_s,
                     spans=len(tracer.span_name), inclusive_share=tracer.inclusive_share(SHARE_PREFIXES))
        tracer.dump(OUT / f"spans-{args.workload}.json", {"workload": args.workload, "seed": args.seed})
    extra["clock_factor"] = {"median": statistics.median(clock.factors), "min": min(clock.factors),
                             "max": max(clock.factors), "reads": len(clock.factors)}
    meta = metadata(args, tally, extra)
    correct = tally.failed == 0 and selftest["ok"]
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(tally.latency_ns), "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
