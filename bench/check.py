"""Answer checks that share no code with hedgecut, and a self-test of them.

A connectivity answer is re-checked on the instance's own edge list with
gen.components: the printed cut must disconnect the graph and the printed
sides must be a union of the components that are left.  The reference
lambda comes from the planted construction or from gen.enumerate_cut,
never from the program's output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

import gen

UNIVERSAL = {"T1_MIN_DEG_BOUND", "T2_RELABEL_GE_MAXDEG", "T3_DA_LE_TOTAL", "VD_EQUALITY",
             "SPANSUM_UPPER", "RANKSUM_SEQ", "NULLSUM_SEQ", "CONTRACT_MIN", "CONTRACT_SUM"}
LAMBDA_CLAIMS = {"T1_MIN_DEG_BOUND": lambda lhs: lhs, "COROLLARY_CHAIN": lambda lhs: lhs[0]}


@dataclass(frozen=True)
class Outcome:
    """One checked op: ``answers`` lambda values it reported, ``hits`` equal to the reference."""

    ok: bool
    answers: int = 0
    hits: int = 0
    exact: int = 0
    reason: str = ""


def fail(reason: str) -> Outcome:
    return Outcome(False, reason=reason)


def check_connectivity(inst: dict, code: int, out: str, *, golden: bool) -> Outcome:
    """Check `connectivity` stdout; with ``golden`` it must also be exact, minimum and byte-equal."""
    if code != 0:
        return fail(f"exit code {code}")
    fields = dict(line.partition("=")[::2] for line in out.splitlines())
    if list(fields) != ["lambda_h", "exact", "cut", "sides"] or fields["exact"] not in ("true", "false"):
        return fail("malformed output")
    n, edges = inst["graph"]
    size = int(fields["lambda_h"])
    cut = set(filter(None, fields["cut"].split(",")))
    side_a, _, side_b = fields["sides"].partition("|")
    a = {int(x) for x in side_a.split(",") if x}
    b = {int(x) for x in side_b.split(",") if x}
    if len(cut) != size or not cut <= set(gen.label_order(edges)):
        return fail("cut labels do not match lambda_h")
    if not a or not b or a & b or a | b != set(range(n)):
        return fail("sides are not a bipartition")
    roots = gen.components(n, ((u, v) for u, v, lab in edges if lab not in cut))
    if len(set(roots)) < 2:
        return fail("cut does not disconnect")
    if {roots[v] for v in a} & {roots[v] for v in b}:
        return fail("sides split a leftover component")
    exact = fields["exact"] == "true"
    if size < inst["lambda"] or (exact and size != inst["lambda"]):
        return fail(f"lambda_h={size} contradicts reference {inst['lambda']}")
    if golden and out != inst["stdout"]:
        return fail("stdout differs from golden")
    return Outcome(True, 1, int(size == inst["lambda"]), int(exact))


def verdict_fields(header: str) -> dict:
    """Parse a verdict header line into its JSON-decoded fields."""
    tokens = header.split()
    if tokens[0] != "verdict":
        raise ValueError("not a verdict header")
    fields = dict(t.partition("=")[::2] for t in tokens[1:])
    for key in ("lhs", "rhs", "witness"):
        fields[key] = json.loads(fields[key])
    fields["holds"] = {"true": True, "false": False}[fields["holds"]]
    return fields


def check_audit(inst: dict, code: int, out: str) -> Outcome:
    """Check `audit --theorem all` stdout: golden bytes, every record, lambda against the reference."""
    if code != 0:
        return fail(f"exit code {code}")
    if hashlib.sha256(out.encode("ascii")).hexdigest() != inst["stdout_sha256"]:
        return fail("stdout differs from golden")
    digest = hashlib.sha256(inst["text"].encode("ascii")).hexdigest()
    tail = f"\ninstance-begin\n{inst['text']}"
    answers = hits = 0
    for record in out.split("instance-end\n")[:-1]:
        header = record.partition("\n")[0]
        fields = verdict_fields(header)
        if record != header + tail or fields["digest"] != digest:
            return fail("record does not carry the instance")
        if fields["theorem"] in UNIVERSAL and not fields["holds"]:
            return fail(f"universal claim {fields['theorem']} violated")
        if fields["theorem"] in LAMBDA_CLAIMS:
            answers += 1
            hits += LAMBDA_CLAIMS[fields["theorem"]](fields["lhs"]) == inst["lambda"]
    if answers != len(LAMBDA_CLAIMS):
        return fail("lambda claims missing")
    return Outcome(hits == answers, answers, hits, reason="" if hits == answers else "lambda mismatch")


def check_recheck(rec: dict, verdict, confirmed) -> Outcome:
    """A committed record must parse to its own fields and re-verify as true."""
    if confirmed is not True:
        return fail("record did not re-verify")
    expect = rec["fields"]
    got = {"theorem": getattr(verdict.theorem, "value", None), "holds": verdict.holds, "lhs": verdict.lhs,
           "rhs": verdict.rhs, "witness": verdict.witness, "digest": verdict.digest}
    if got != {key: expect[key] for key in got} or verdict.instance_text != rec["inst"]["text"]:
        return fail("parsed record differs from its text")
    if expect["theorem"] not in LAMBDA_CLAIMS:
        return Outcome(True)
    hit = LAMBDA_CLAIMS[expect["theorem"]](expect["lhs"]) == rec["inst"]["lambda"]
    return Outcome(hit, 1, int(hit), reason="" if hit else "lambda mismatch")


def _corrupt_cut(inst: dict, out: str) -> str:
    """Swap the printed cut for the first label set of the same size that is not a cut."""
    n, edges = inst["graph"]
    lines = out.splitlines()
    size = int(lines[0].partition("=")[2])
    for combo in itertools.combinations(gen.label_order(edges), size):
        if gen.connected_without(n, edges, set(combo)):
            lines[2] = "cut=" + ",".join(combo)
            return "\n".join(lines) + "\n"
    raise ValueError("every label set of that size is a cut")


def _corrupt_sides(inst: dict, out: str) -> str:
    """Move one vertex that shares a leftover edge with its side to the other side."""
    n, edges = inst["graph"]
    lines = out.splitlines()
    cut = set(lines[2].partition("=")[2].split(","))
    a, b = ({int(x) for x in s.split(",")} for s in lines[3].partition("=")[2].split("|"))
    big = a if len(a) >= len(b) else b
    mover = next(u for u, v, lab in edges if lab not in cut and u in big and v in big)
    a, b = (a - {mover}, b | {mover}) if big is a else (a | {mover}, b - {mover})
    lines[3] = "sides=" + ",".join(map(str, sorted(a))) + "|" + ",".join(map(str, sorted(b)))
    return "\n".join(lines) + "\n"


def _edit_record(rec: dict) -> str:
    """Change the left-hand side of a record while keeping it well formed."""
    header, rest = rec["text"].split("\n", 1)
    lhs = rec["fields"]["lhs"]
    edited = json.dumps(lhs + 1 if isinstance(lhs, int) else [lhs[0] + 1] + lhs[1:], separators=(",", ":"))
    return header.replace(f" lhs={json.dumps(lhs, separators=(',', ':'))} ", f" lhs={edited} ") + "\n" + rest


def selftest(exact_inst: dict, record: dict, recheck_op) -> dict:
    """Feed each check one genuine and one corrupted answer; report what it counted as failed.

    ``exact_inst`` must have a golden output; ``record`` must have an integer
    or list ``lhs``; ``recheck_op(text)`` runs the program on a record text.
    """
    golden = exact_inst["stdout"]
    cases = {
        "cut": lambda text: check_connectivity(exact_inst, 0, text, golden=False),
        "sides": lambda text: check_connectivity(exact_inst, 0, text, golden=False),
        "record": lambda text: check_recheck(record, *recheck_op(text)),
    }
    genuine = {"cut": golden, "sides": golden, "record": record["text"]}
    corrupted = {"cut": _corrupt_cut(exact_inst, golden), "sides": _corrupt_sides(exact_inst, golden),
                 "record": _edit_record(record)}
    controls_ok = all(cases[k](genuine[k]).ok for k in cases)
    caught = [k for k in cases if not cases[k](corrupted[k]).ok]
    return {"injected": len(cases), "counted_failed": len(caught), "caught": caught,
            "genuine_passed": controls_ok, "ok": controls_ok and len(caught) == len(cases)}
