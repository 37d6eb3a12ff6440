"""Regenerate the committed instance pools under bench/data/.

    PYTHONPATH=src python3 bench/build_data.py

Instances and reference connectivity come from gen.py alone.  The
package is used only for what must be the program's own output: the
byte goldens of the `exact` and `audit` commands and the verdict records
that `recheck` re-verifies.  Run it only on a commit whose output is
known to be right, since every later run is held to these bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from hedgecut import TheoremId, audit_theorem, format_verdict, parse  # noqa: E402
from hedgecut.cli import main as cli_main  # noqa: E402

WORK = ROOT / ".bench_out" / "build"

def _halves(rng: gen.SplitMix, lo: int, hi: int) -> tuple[int, int]:
    return rng.between(lo, hi), rng.between(lo, hi)


def _dense(rng: gen.SplitMix, lo: int, trees: int, splits: tuple[int, int], cross: int, extra_pct: int) -> tuple:
    return gen.planted(rng, _halves(rng, lo, 8), trees, [rng.between(*splits) for _ in range(trees)],
                       cross, extra_pct)


def _singleton(rng: gen.SplitMix) -> tuple:
    cross = rng.between(1, 2)
    return (*gen.planted(rng, _halves(rng, 30, 75), 3, [], cross, singleton=True), cross)


# stratum -> (count, maker(rng) -> (n, edges, planted lambda or None), required lambda, subsets tried range).
# Most instances sit in the lambda=3 core, so the median op falls where op times are dense.
EXACT_STRATA = {
    "planted_l1": (8, lambda r: (*_dense(r, 6, 2, (3, 4), 1, 30), 1), 1, (1, None)),
    "planted_l2": (12, lambda r: (*_dense(r, 7, 3, (2, 3), 2, 20), 2), 2, (1, None)),
    "natural_r2": (8, lambda r: (*_dense(r, 6, 2, (3, 4), r.between(2, 4), 10), None), None, (1, None)),
    "natural_l3": (40, lambda r: (*_dense(r, 7, 3, (2, 3), r.between(3, 5), 0), None), 3, (300, 1500)),
    "natural_l4": (12, lambda r: (*_dense(r, 7, 3, (2, 3), r.between(4, 5), 0), None), 4, (1, 5000)),
    "singleton": (16, _singleton, None, None),
}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _materialize(name: str, text: str) -> str:
    path = WORK / name
    path.write_text(text, encoding="ascii")
    return str(path)


def build_exact() -> dict:
    instances = []
    for stratum, (count, make, want, tried_range) in EXACT_STRATA.items():
        found, attempt = 0, 0
        while found < count:
            attempt += 1
            n, edges, lam = make(gen.SplitMix(gen.derive(101, len(instances), attempt)))
            labels = len(gen.label_order(edges))
            if tried_range is not None:
                if not (12 <= n <= 16 and 14 <= labels <= 20):
                    continue
                got, tried = gen.enumerate_cut(n, edges, limit=tried_range[1])
                if got < 0 or tried < tried_range[0] or (want is not None and got != want):
                    continue
                lam = got
            ident = f"exact-{len(instances):03d}"
            text = gen.to_hg1(n, edges)
            code, out = _run_cli(["connectivity", _materialize(ident + ".hg", text)])
            assert code == 0 and out.startswith(f"lambda_h={lam}\nexact=true\n"), (ident, out)
            instances.append({"id": ident, "stratum": stratum, "n": n, "m": len(edges), "labels": labels,
                              "delta_L": gen.min_label_degree(n, edges), "lambda": lam,
                              "text": text, "stdout": out})
            found += 1
    return {"instances": instances}


def _small(tag: int, index: int, n_range: tuple[int, int]) -> tuple[int, list]:
    return gen.small_random(gen.SplitMix(gen.derive(tag, index)), n_range, (0, 3), (1, 5))


def build_audit() -> dict:
    instances = []
    for stratum, count, n_range in (("default", 200, (2, 8)), ("n9_12", 40, (9, 12))):
        for _ in range(count):
            n, edges = _small(303, len(instances), n_range)
            ident = f"audit-{len(instances):03d}"
            text = gen.to_hg1(n, edges)
            code, out = _run_cli(["audit", _materialize(ident + ".hg", text), "--theorem", "all"])
            assert code == 0, ident
            instances.append({"id": ident, "stratum": stratum, "n": n, "m": len(edges),
                              "labels": len(gen.label_order(edges)), "lambda": gen.enumerate_cut(n, edges)[0],
                              "text": text, "stdout_sha256": hashlib.sha256(out.encode("ascii")).hexdigest(),
                              "stdout_bytes": len(out)})
    return {"instances": instances}


def build_recheck() -> dict:
    """Verdict records of every claim on instances from a seed range disjoint from `audit`."""
    modes = [{}, {}, {}, {}, {"count_loops": False}, {"induced_degrees": True}]
    instances, records = [], []
    for index in range(24):
        n, edges = _small(404, index, (2, 8))
        text = gen.to_hg1(n, edges)
        mode = modes[index % len(modes)]
        g = parse(text)
        for theorem in TheoremId:
            for verdict in audit_theorem(theorem, g, **mode):
                records.append([index, format_verdict(verdict).split("\n", 1)[0]])
        instances.append({"id": f"recheck-{index:03d}", "stratum": "+".join(mode) or "default", "n": n,
                          "m": len(edges), "labels": len(gen.label_order(edges)),
                          "lambda": gen.enumerate_cut(n, edges)[0], "mode": mode, "text": text})
    return {"instances": instances, "records": records}


def main() -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    for name, build in (("exact", build_exact), ("audit", build_audit), ("recheck", build_recheck)):
        data = build()
        (BENCH / "data" / f"{name}.json").write_text(json.dumps(data, indent=0) + "\n", encoding="ascii")
        print(name, len(data["instances"]), "instances", file=sys.stderr)


if __name__ == "__main__":
    main()
