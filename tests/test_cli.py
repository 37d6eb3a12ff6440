import io
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from conftest import FIXTURES
import hedgecut.graph
from hedgecut import (GeneratorParams, GraphError, TheoremId, build_graph, cli, emit,
                      parse_verdict, search_counterexample)

C4ALT = str(FIXTURES / "c4alt.hg")
SPIDER = str(FIXTURES / "spider.hg")
TRIANGLE = str(FIXTURES / "triangle3.hg")


def run_cli(*args, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "HEDGECUT_SEED"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hedgecut", *args],
                          capture_output=True, text=True, env=env)


def split_records(out: str) -> list[str]:
    parts = out.split("instance-end\n")
    assert parts[-1] == ""
    return [p + "instance-end\n" for p in parts[:-1]]


class TestStats:
    def test_exact_output(self):
        result = run_cli("stats", C4ALT)
        assert result.returncode == 0
        assert result.stdout == (
            "n=4\n"
            "m=4\n"
            "labels=2\n"
            "rank=3\n"
            "nullity=1\n"
            "delta_L=2\n"
            "Delta_L=2\n"
            "max_dA=1\n"
            "hedge label=a span=2 rank=2 nullity=0\n"
            "hedge label=b span=2 rank=2 nullity=0\n"
            "sum_rank=4\n"
            "sum_nullity=0\n"
            "sum_span=4\n"
            "sum_hedge_vertices=8\n"
            "sum_label_degrees=8\n"
        )
        assert result.stderr == ""

    def test_many_labels_in_linear_time(self, tmp_path, capsys):
        # every view comes from one grouping of the edges by label, so the
        # 4,000 hedges of this path cost one pass, not one pass each
        n, labels = 40_000, 4_000
        path = tmp_path / "path.hg"
        path.write_text(emit(build_graph(n, [(v, v + 1, f"l{v % labels}") for v in range(n - 1)])))
        start = time.perf_counter()
        assert cli.main(["stats", str(path)]) == 0
        assert time.perf_counter() - start < 2.0
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == [f"n={n}", f"m={n - 1}", f"labels={labels}"]
        assert out[8] == "hedge label=l0 span=10 rank=10 nullity=0"
        assert out[-5:-3] == [f"sum_rank={n - 1}", "sum_nullity=0"]

    def test_label_sets_built_once(self, monkeypatch, capsys):
        # delta_L, Delta_L, max_dA and the label-degree sum all read one build
        built = []

        def counted(n, edges, *args, _real=hedgecut.graph._vertex_label_sets):
            built.append(n)
            return _real(n, edges, *args)
        for name, module in list(sys.modules.items()):
            if name.startswith("hedgecut.") and hasattr(module, "_vertex_label_sets"):
                monkeypatch.setattr(module, "_vertex_label_sets", counted)
        assert cli.main(["stats", SPIDER]) == 0
        assert capsys.readouterr().out.splitlines()[5:8] == ["delta_L=1", "Delta_L=2", "max_dA=3"]
        assert len(built) == 1


class TestConnectivity:
    def test_exact_output(self):
        result = run_cli("connectivity", C4ALT)
        assert result.returncode == 0
        assert result.stdout == "lambda_h=1\nexact=true\ncut=a\nsides=0,3|1,2\n"

    def test_randomized_method(self):
        result = run_cli("connectivity", C4ALT, "--method", "random",
                         "--trials", "8", "--seed", "42")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "lambda_h=1"
        assert lines[1] == "exact=false"

    def test_method_choices_enforced(self):
        result = run_cli("connectivity", C4ALT, "--method", "magic")
        assert result.returncode == 2

    def test_seed_env_fallback(self):
        explicit = run_cli("connectivity", C4ALT, "--method", "random",
                           "--trials", "4", "--seed", "7")
        via_env = run_cli("connectivity", C4ALT, "--method", "random",
                          "--trials", "4", env_extra={"HEDGECUT_SEED": "7"})
        assert explicit.stdout == via_env.stdout

    @pytest.mark.parametrize("extra", [(), ("--cap", "1"), ("--method", "brute"),
                                       ("--method", "random")])
    def test_negative_trials_rejected(self, extra):
        # rejected before dispatch, whichever method would have run
        result = run_cli("connectivity", C4ALT, "--trials", "-1", *extra)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "--trials" in result.stderr

    def test_in_process_calls_share_no_values(self, monkeypatch, capsys):
        # main reuses one parser; options of one call must not reach the next
        import hedgecut.cli as cli

        monkeypatch.delenv("HEDGECUT_SEED", raising=False)
        assert cli.main(["connectivity", C4ALT, "--method", "random",
                         "--trials", "3", "--seed", "5"]) == 0
        capsys.readouterr()
        assert cli.main(["connectivity", C4ALT]) == 0
        assert capsys.readouterr().out == "lambda_h=1\nexact=true\ncut=a\nsides=0,3|1,2\n"
        assert cli.build_parser() is cli.build_parser()

    def test_zero_trials_accepted(self):
        result = run_cli("connectivity", C4ALT, "--method", "random", "--trials", "0")
        assert result.returncode == 0
        assert result.stdout.startswith("lambda_h=2\n")


class TestContract:
    def test_exact_output(self):
        result = run_cli("contract", C4ALT, "--hedge", "a")
        assert result.returncode == 0
        assert result.stdout == "HG1 2 2\n0 1 b\n1 0 b\n"

    def test_cleanup_flag(self):
        result = run_cli("contract", C4ALT, "--hedge", "a", "--cleanup")
        assert result.returncode == 0
        assert result.stdout == "HG1 2 1\n0 1 b\n"

    def test_unknown_hedge(self):
        result = run_cli("contract", C4ALT, "--hedge", "zz")
        assert result.returncode == 2
        assert result.stderr.startswith("error:")

    def test_hedge_flag_required(self):
        assert run_cli("contract", C4ALT).returncode == 2


class TestRelabel:
    def test_exact_output(self):
        result = run_cli("relabel", SPIDER)
        assert result.returncode == 0
        assert result.stdout == (
            "q=2\n"
            "label=b color=0\n"
            "label=a1 color=1\n"
            "label=a2 color=1\n"
            "label=a3 color=1\n"
        )


class TestAudit:
    def test_refuted_claim_exits_zero(self):
        result = run_cli("audit", C4ALT, "--theorem", "RANKSUM_STATIC")
        assert result.returncode == 0
        records = split_records(result.stdout)
        assert len(records) == 1
        v = parse_verdict(records[0])
        assert not v.holds and (v.lhs, v.rhs) == (3, 4)

    def test_universal_claim_exits_zero(self):
        result = run_cli("audit", C4ALT, "--theorem", "VD_EQUALITY")
        assert result.returncode == 0
        v = parse_verdict(split_records(result.stdout)[0])
        assert v.holds

    def test_all_claims_on_file(self):
        result = run_cli("audit", TRIANGLE, "--theorem", "all")
        assert result.returncode == 0
        records = split_records(result.stdout)
        assert len(records) >= len(TheoremId)
        seen = {parse_verdict(r).theorem for r in records}
        assert seen == set(TheoremId)

    def test_random_mode(self):
        result = run_cli("audit", "--random", "--theorem", "RANKSUM_SEQ",
                         "--trials", "3", "--seed", "4",
                         "--params", "n=2..4,extra=0..1,L=1..2")
        assert result.returncode == 0
        for record in split_records(result.stdout):
            assert parse_verdict(record).holds

    def test_random_mode_deterministic(self):
        args = ("audit", "--random", "--theorem", "all", "--trials", "2",
                "--seed", "9", "--params", "n=2..4,extra=0..1,L=1..2")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_random_mode_needs_a_trial(self, trials):
        result = run_cli("audit", "--random", "--theorem", "all", "--trials", trials)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "--trials" in result.stderr

    def test_file_and_random_exclusive(self):
        both = run_cli("audit", C4ALT, "--random", "--theorem", "all")
        assert both.returncode == 2
        assert "exactly one" in both.stderr
        neither = run_cli("audit", "--theorem", "all")
        assert neither.returncode == 2

    def test_unknown_theorem(self):
        result = run_cli("audit", C4ALT, "--theorem", "NOPE")
        assert result.returncode == 2
        assert "unknown theorem" in result.stderr

    def test_universal_violation_exit_code(self, monkeypatch, capsys):
        # no real instance can violate a universal claim, so stub the auditor
        import hedgecut.cli as cli
        from hedgecut import AuditVerdict, instance_digest

        text = "HG1 2 1\n0 1 a\n"
        fake = AuditVerdict(TheoremId.VD_EQUALITY, text, instance_digest(text),
                            False, 1, 2, None)
        monkeypatch.setattr(cli, "audit_theorem", lambda theorem, g: [fake])
        assert cli.main(["audit", C4ALT, "--theorem", "VD_EQUALITY"]) == 1
        assert "holds=false" in capsys.readouterr().out

    def test_refutable_violation_keeps_exit_zero(self, monkeypatch, capsys):
        import hedgecut.cli as cli
        from hedgecut import AuditVerdict, format_verdict, instance_digest

        text = "HG1 2 1\n0 1 a\n"
        fake = AuditVerdict(TheoremId.RANKSUM_STATIC, text, instance_digest(text),
                            False, 1, 2, None)
        monkeypatch.setattr(cli, "audit_theorem", lambda theorem, g: [fake])
        assert cli.main(["audit", C4ALT, "--theorem", "RANKSUM_STATIC"]) == 0
        # the real audit of c4alt refutes this claim too, so only the stub's record tells them apart
        assert capsys.readouterr().out == format_verdict(fake)


class TestGenerate:
    def test_frozen_output(self):
        result = run_cli("generate", "--seed", "5")
        assert result.returncode == 0
        assert result.stdout == "HG1 5 4\n0 4 l1\n1 2 l3\n1 3 l0\n1 4 l2\n"

    def test_env_seed_matches_flag(self):
        via_env = run_cli("generate", env_extra={"HEDGECUT_SEED": "5"})
        assert via_env.stdout == run_cli("generate", "--seed", "5").stdout

    def test_invalid_env_seed(self):
        result = run_cli("generate", env_extra={"HEDGECUT_SEED": "pi"})
        assert result.returncode == 2
        assert "HEDGECUT_SEED" in result.stderr

    def test_extra_alias(self):
        a = run_cli("generate", "--params", "n=4..4,extra=1..1,L=2..2", "--seed", "3")
        b = run_cli("generate", "--params", "n=4..4,m=1..1,L=2..2", "--seed", "3")
        assert a.returncode == 0 and a.stdout == b.stdout

    def test_bad_params(self):
        assert run_cli("generate", "--params", "q=1..2").returncode == 2
        assert run_cli("generate", "--params", "n=a..b").returncode == 2
        assert run_cli("generate", "--params", "nonsense").returncode == 2

    def test_infeasible_params(self):
        result = run_cli("generate", "--params", "n=2..2,extra=0..0,L=5..5")
        assert result.returncode == 2
        assert "infeasible" in result.stderr


class TestErrorHandling:
    def test_missing_file(self):
        result = run_cli("stats", "/nonexistent/path.hg")
        assert result.returncode == 2
        assert result.stderr.startswith("error:")

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "loop.hg"
        bad.write_text("HG1 2 1\n0 0 a\n")
        result = run_cli("stats", str(bad))
        assert result.returncode == 2
        assert "line 2" in result.stderr

    def test_signed_vertex_id(self, tmp_path):
        bad = tmp_path / "signed.hg"
        bad.write_text("HG1 2 1\n0 +1 a\n")
        result = run_cli("stats", str(bad))
        assert result.returncode == 2
        assert result.stderr == "error: line 2: vertex ids must be decimal integers\n"

    def test_non_ascii_file(self, tmp_path):
        bad = tmp_path / "accent.hg"
        bad.write_bytes("HG1 2 1\n0 1 caf\u00e9\n".encode("utf-8"))
        for command in (("stats",), ("connectivity",), ("audit", "--theorem", "all")):
            result = run_cli(command[0], str(bad), *command[1:])
            assert result.returncode == 2
            assert result.stderr == "error: line 2: non-ASCII byte 0xc3\n"

    def test_unknown_flag(self):
        assert run_cli("stats", C4ALT, "--bogus").returncode == 2

    def test_missing_subcommand(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    def test_closed_pipe_exits_2(self, monkeypatch):
        # stdout and stderr feed one pipe its reader closed, so the error
        # message cannot be written either; exit 1 would claim a broken theorem
        monkeypatch.setattr(sys, "stdout", self.ClosedPipe())
        monkeypatch.setattr(sys, "stderr", self.ClosedPipe())
        assert cli.main(["generate", "--seed", "1"]) == 2

    def test_closed_stdout_is_silent(self, monkeypatch, capsys):
        # a reader such as `head -n 1` closes only stdout: that is no error to report
        monkeypatch.setattr(sys, "stdout", self.ClosedPipe())
        assert cli.main(["generate", "--seed", "1"]) == 2
        assert capsys.readouterr().err == ""

    def test_short_output_to_a_closed_pipe(self):
        # the reader is gone before the process starts; a short output sits in
        # stdout's buffer, so only a flush inside main meets the broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k not in ("HEDGECUT_SEED", "PYTHONUNBUFFERED")}
        try:
            result = subprocess.run([sys.executable, "-m", "hedgecut", "generate", "--seed", "1"],
                                    stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (2, b"")


# command -> (argv with "{}" for the instance file, one bad option added to a good run)
MATRIX_COMMANDS = {
    "stats": (["stats", "{}"], ["--trials", "3"]),  # stats takes no options
    "connectivity": (["connectivity", "{}"], ["--trials", "-1"]),
    "contract": (["contract", "{}", "--hedge", "a"], ["--hedge", "zz"]),
    "relabel": (["relabel", "{}"], ["--seed", "1"]),  # relabel takes no options
    "audit": (["audit", "{}", "--theorem", "all"], ["--theorem", "NOPE"]),
}
FILE_FAULTS = {"bad-header": b"HG2 2 1\n0 1 a\n", "non-ascii": b"HG1 2 1\n0 1 caf\xc3\xa9\n",
               # one vertex over the limit, so a missing check costs a bounded few hundred MB
               "vertex-limit": b"HG1 1000001 1\n0 1 a\n"}


def main_exit_code(argv, capsys):
    """cli.main in-process: its return code, or the code argparse exits with."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert err.strip(), "an input error must say what went wrong"
    assert out == ""
    return code


@pytest.mark.parametrize("fault", ["missing", "directory", "bad-header", "non-ascii", "vertex-limit",
                                   "bad-option"])
@pytest.mark.parametrize("command", list(MATRIX_COMMANDS))
def test_exit_code_matrix(command, fault, tmp_path, capsys, monkeypatch):
    # every input error exits 2 with a message and no traceback; exit 1 is
    # reserved for a violated universal claim
    monkeypatch.delenv("HEDGECUT_SEED", raising=False)
    argv, bad_option = MATRIX_COMMANDS[command]
    path = {"missing": tmp_path / "missing.hg", "directory": tmp_path}.get(fault, C4ALT)
    if fault in FILE_FAULTS:
        path = tmp_path / f"{fault}.hg"
        path.write_bytes(FILE_FAULTS[fault])
    argv = [str(path) if arg == "{}" else arg for arg in argv]
    if fault == "bad-option":
        argv += bad_option
    assert main_exit_code(argv, capsys) == 2


@pytest.mark.parametrize("argv", [
    ["generate", "--params", "n=8..2"],
    ["generate", "--params", "q=1..2"],
    ["generate", "--seed", "x"],
    ["generate", "--params", "n=1000001..1000001"],
    ["generate", "--params", "extra=0..1000001"],
], ids=["reversed-range", "unknown-key", "non-int-seed", "vertex-limit", "extra-edge-limit"])
def test_generate_exit_code(argv, capsys, monkeypatch):
    monkeypatch.delenv("HEDGECUT_SEED", raising=False)
    assert main_exit_code(argv, capsys) == 2


def test_vertex_limit_is_refused_before_any_allocation(tmp_path, capsys, monkeypatch):
    # every command would otherwise build lists or sets over all vertices
    monkeypatch.delenv("HEDGECUT_SEED", raising=False)
    path = tmp_path / "vertex-limit.hg"
    path.write_bytes(FILE_FAULTS["vertex-limit"])
    cli.build_parser()  # built once and cached; not the input's cost
    for argv, _ in MATRIX_COMMANDS.values():
        tracemalloc.start()
        try:
            code = cli.main([str(path) if arg == "{}" else arg for arg in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 200_000, (argv, peak)
        assert capsys.readouterr().err == "error: line 1: header vertex count exceeds the limit of 1000000\n"


def test_extra_edge_limit_is_refused_before_any_work(capsys, monkeypatch):
    # at n = 200 a lost check would clamp the range to 19,701 extra edges, about
    # 10 MB and a second of work, so the limit itself is never run
    monkeypatch.delenv("HEDGECUT_SEED", raising=False)
    ranges = "n=200..200,extra=1000001..1000001"
    params = GeneratorParams((200, 200), (1_000_001, 1_000_001))
    message = "extra edge range must not exceed 1000000"
    cli.build_parser()  # built once and cached; not the input's cost
    for argv in (["generate", "--params", ranges],
                 ["audit", "--random", "--theorem", "T1_MIN_DEG_BOUND", "--params", ranges]):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 200_000, (argv, peak)
        assert capsys.readouterr() == ("", f"error: {message}\n")
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match=f"^{message}$"):
            search_counterexample(TheoremId.T1_MIN_DEG_BOUND, params, trials=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("stats", C4ALT),
        ("connectivity", C4ALT),
        ("connectivity", TRIANGLE, "--method", "random", "--trials", "6", "--seed", "1"),
        ("contract", C4ALT, "--hedge", "b"),
        ("relabel", SPIDER),
        ("audit", TRIANGLE, "--theorem", "all"),
        ("generate", "--seed", "31"),
    ])
    def test_same_bytes_twice(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
