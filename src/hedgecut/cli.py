"""Command line surface: stats, connectivity, contract, relabel, audit, generate.

All output is plain text and deterministic given the arguments.  Usage
and input errors exit with status 2; the audit command exits with
status 1 when a claim from the provably-universal set is violated
(violations of the refutable claims are findings, reported with exit 0).
The optional HEDGECUT_SEED environment variable supplies the default
seed where --seed is not given.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from typing import Iterable

from .adjacency import _adjacency_of, greedy_relabel
from .audit import (
    UNIVERSAL_IDS,
    GeneratorParams,
    TheoremId,
    audit_theorem,
    format_verdict,
    random_instance,
)
from .connectivity import hedge_connectivity
from .contraction import cleanup, contract_hedge
from .graph import GraphError, HedgeGraph, _hedge_views, _vertex_label_sets, graph_rank_nullity
from .hgformat import ParseError, emit, parse
from .rng import mix


def _load(path: str) -> HedgeGraph:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"non-ASCII byte 0x{data[exc.start]:02x}") from None
    return parse(text)


def _seed(args: argparse.Namespace) -> int:
    """--seed when given, else HEDGECUT_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("HEDGECUT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise GraphError("HEDGECUT_SEED must be an integer") from None


def _parse_params(ranges: str | None, seed: int) -> GeneratorParams:
    """Parse 'n=2..8,extra=0..3,L=1..5' (m is accepted for extra)."""
    params = GeneratorParams(seed=seed)
    if not ranges:
        return params
    for part in ranges.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise GraphError(f"params entry {part!r} must look like key=lo..hi")
        lo_text, dots, hi_text = value.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError:
            raise GraphError(f"params entry {part!r} has a non-integer bound") from None
        key = key.strip()
        if key == "n":
            params = replace(params, n_range=(lo, hi))
        elif key in ("extra", "m"):
            params = replace(params, extra_range=(lo, hi))
        elif key == "L":
            params = replace(params, label_range=(lo, hi))
        else:
            raise GraphError(f"unknown params key {key!r} (expected n, extra/m or L)")
    return params


def _cmd_stats(args: argparse.Namespace) -> int:
    g = _load(args.file)
    rank, nullity = graph_rank_nullity(g)
    sets = _vertex_label_sets(g.n, g.edges)  # one build for the degrees and max_dA
    degrees = [len(s) for s in sets]
    views = _hedge_views(g)
    print(f"n={g.n}")
    print(f"m={g.m}")
    print(f"labels={g.num_labels}")
    print(f"rank={rank}")
    print(f"nullity={nullity}")
    print(f"delta_L={min(degrees)}")
    print(f"Delta_L={max(degrees)}")
    print(f"max_dA={max(map(len, _adjacency_of(g.num_labels, sets)), default=0)}")
    for view in views:
        print(f"hedge label={view.name} span={view.span} rank={view.rank} nullity={view.nullity}")
    print(f"sum_rank={sum(v.rank for v in views)}")
    print(f"sum_nullity={sum(v.nullity for v in views)}")
    print(f"sum_span={sum(v.span for v in views)}")
    print(f"sum_hedge_vertices={sum(len(v.vertex_set) for v in views)}")
    print(f"sum_label_degrees={sum(degrees)}")
    return 0


def _cmd_connectivity(args: argparse.Namespace) -> int:
    if args.trials is not None and args.trials < 0:
        raise GraphError("--trials must be nonnegative")
    g = _load(args.file)
    cert = hedge_connectivity(g, method=args.method, cap=args.cap,
                              trials=args.trials, base_seed=_seed(args))
    cut = ",".join(g.labels[i] for i in sorted(cert.labels))
    side_a = ",".join(str(v) for v in sorted(cert.side_a))
    side_b = ",".join(str(v) for v in sorted(cert.side_b))
    print(f"lambda_h={cert.size}")
    print(f"exact={'true' if cert.exact else 'false'}")
    print(f"cut={cut}")
    print(f"sides={side_a}|{side_b}")
    return 0


def _cmd_contract(args: argparse.Namespace) -> int:
    g = _load(args.file)
    result = contract_hedge(g, args.hedge)
    if args.cleanup:
        result = cleanup(result)
    print(emit(result), end="")
    return 0


def _cmd_relabel(args: argparse.Namespace) -> int:
    g = _load(args.file)
    relabeling = greedy_relabel(g)
    print(f"q={relabeling.num_colors}")
    for i, name in enumerate(g.labels):
        print(f"label={name} color={relabeling.colors[i]}")
    return 0


def _theorem_selection(value: str) -> list[TheoremId]:
    if value == "all":
        return list(TheoremId)
    try:
        return [TheoremId(value)]
    except ValueError:
        raise GraphError(f"unknown theorem id {value!r}") from None


def _cmd_audit(args: argparse.Namespace) -> int:
    if (args.file is None) == (not args.random):
        raise GraphError("audit needs exactly one of: an instance file, or --random")
    if args.random and args.trials < 1:
        raise GraphError("--trials must be at least 1 with --random")
    ids = _theorem_selection(args.theorem)
    if args.file is not None:
        instances: Iterable[HedgeGraph] = [_load(args.file)]
    else:
        seed = _seed(args)
        params = _parse_params(args.params, seed)
        instances = (random_instance(replace(params, seed=mix(seed, t))) for t in range(args.trials))
    broken_universal = False
    for g in instances:
        for theorem in ids:
            for v in audit_theorem(theorem, g):
                sys.stdout.write(format_verdict(v))
                if not v.holds and theorem in UNIVERSAL_IDS:
                    broken_universal = True
    return 1 if broken_universal else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    params = _parse_params(args.params, _seed(args))
    print(emit(random_instance(params)), end="")
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hedgecut",
                                     description="Hedge graph connectivity toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="structural summary of an instance")
    p.add_argument("file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("connectivity", help="connectivity certificate")
    p.add_argument("file")
    p.add_argument("--method", choices=("auto", "brute", "random"), default="auto")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=20)
    p.set_defaults(func=_cmd_connectivity)

    p = sub.add_parser("contract", help="contract one hedge, print the result")
    p.add_argument("file")
    p.add_argument("--hedge", required=True, help="label name to contract")
    p.add_argument("--cleanup", action="store_true",
                   help="merge same-label parallels and loops afterwards")
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("relabel", help="greedy proper relabeling of the hedges")
    p.add_argument("file")
    p.set_defaults(func=_cmd_relabel)

    p = sub.add_parser("audit", help="adjudicate claims, print verdict records")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--random", action="store_true",
                   help="audit seeded random instances instead of a file")
    p.add_argument("--theorem", required=True, help="a theorem id, or 'all'")
    p.add_argument("--trials", type=int, default=100,
                   help="instance count for --random (default 100)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--params", default=None,
                   help="generator ranges, e.g. n=2..8,extra=0..3,L=1..5")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("generate", help="emit a seeded random instance")
    p.add_argument("--params", default=None,
                   help="generator ranges, e.g. n=2..8,extra=0..3,L=1..5")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a short output would otherwise meet a closed pipe only at exit
        return code
    except BrokenPipeError:  # the reader closed stdout early: no message; 1 means a broken claim
        if sys.stdout is sys.__stdout__:  # the flush at interpreter exit then writes nowhere
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2
    except (ParseError, GraphError, OSError) as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:  # stderr closed as well, e.g. both fed one pipe; exit 1 means a broken claim
            pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
