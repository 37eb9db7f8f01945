import errno
import json
import os
import pathlib
import subprocess
import sys

from freealg.cli import main
from freealg.dsl import parse_term, parse_theory
from freealg.engine import decide
from freealg.malcev import malcev_equations

THEORIES = pathlib.Path(__file__).parent.parent / "theories"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def test_malcev_groups_exit_zero(capsys):
    code, report = run_json(capsys, "malcev", str(THEORIES / "groups.th"), "--bound", "7")
    assert code == 0
    assert report["verdict"]["status"] == "proved"
    assert report["witnesses"] == ["mul(x, mul(inv(y), z))"]
    assert report["theory_hash"].startswith("sha256:")
    assert report["budgets"]["max_model_size"] == 3


def test_check_preimages_semilattice_clean(capsys):
    code, out = run_cli(
        capsys, "check-preimages", str(THEORIES / "semilattice.th"), "--term-bound", "5"
    )
    assert code == 0
    assert "verified up to bound" in out


def test_check_preimages_groups_refuted_with_z2_table(capsys):
    code, report = run_json(
        capsys, "check-preimages", str(THEORIES / "groups.th"), "--term-bound", "6"
    )
    assert code == 1
    assert report["verdict"]["status"] == "refuted"
    assert report["verdict"]["model"]["size"] == 2
    assert report["verdict"]["model"]["tables"]["mul"] == [[0, 1], [1, 0]]


def test_witnesses_reparse_and_reverify(capsys):
    code, report = run_json(capsys, "malcev", str(THEORIES / "groups.th"))
    groups = parse_theory((THEORIES / "groups.th").read_text())
    assert code == 0
    for w in report["witnesses"]:
        term = parse_term(groups.signature, w)  # must re-parse under the DSL
        for eq in malcev_equations(term):
            assert decide(groups, eq).is_proved


def test_reports_are_deterministic(capsys):
    _, rep1 = run_json(capsys, "derivative", str(THEORIES / "groups.th"), "--term-bound", "5")
    _, rep2 = run_json(capsys, "derivative", str(THEORIES / "groups.th"), "--term-bound", "5")
    rep1.pop("timing_ms"), rep2.pop("timing_ms")
    assert rep1 == rep2


def test_prove_exit_codes(capsys):
    groups = str(THEORIES / "groups.th")
    assert run_cli(capsys, "prove", groups, "mul(e(), x) = x")[0] == 0
    assert run_cli(capsys, "prove", groups, "mul(x, x) = e()")[0] == 1  # Z3 refutes
    assert run_cli(capsys, "prove", groups, "mul(x, y) = mul(y, x)")[0] == 2


def test_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.th"
    bad.write_text("signature: f/2 equations: f(x) = x")
    assert main([str(bad), "idempotent"]) == 3  # wrong arg order is usage
    assert main(["idempotent", str(bad)]) == 3  # arity mismatch is a parse error
    assert main(["idempotent", str(tmp_path / "missing.th")]) == 3
    capsys.readouterr()
    # a crash must not exit with a verdict code
    deep = "inv(" * 3000 + "x" + ")" * 3000
    assert main(["prove", str(THEORIES / "groups.th"), f"{deep} = x"]) == 3
    assert main(["prove", str(tmp_path), "x = x"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)
    assert err[0].endswith("term nested too deeply")


def test_models_report(capsys):
    code, report = run_json(capsys, "models", str(THEORIES / "groups.th"), "--size", "2")
    assert code == 0
    assert [m["size"] for m in report["models"]] == [1, 2, 2]


def test_free_report(capsys):
    code, report = run_json(
        capsys, "free", str(THEORIES / "semilattice.th"), "--vars", "x,y", "--bound", "4"
    )
    assert code == 0
    assert report["elements"] == ["x", "y", "and(x, y)"]


def test_idempotent_exit_codes(capsys):
    assert run_cli(capsys, "idempotent", str(THEORIES / "lattice.th"))[0] == 0
    assert run_cli(capsys, "idempotent", str(THEORIES / "groups.th"))[0] == 1


def test_hm_chain_and_shorten(capsys):
    groups = str(THEORIES / "groups.th")
    code, report = run_json(capsys, "hm-chain", groups, "--n", "3", "--bound", "6")
    assert code == 0 and len(report["witnesses"]) == 2
    code, report = run_json(
        capsys, "shorten", groups, "--chain", "mul(x, mul(inv(y), z)); z", "--s-bound", "6"
    )
    assert code == 0
    assert report["chain"] == ["mul(x, mul(inv(y), z))"]


def test_kernel_report_statuses(capsys):
    assert run_cli(capsys, "kernel-report", str(THEORIES / "groups.th"))[0] == 0
    code, report = run_json(capsys, "kernel-report", str(THEORIES / "semilattice.th"))
    assert code == 2
    assert report["report_status"] == "open"
    assert report["open_pairs"] == []


def test_kernel_report_rejects_s_bound_below_pair_bound(capsys):
    semilattice = str(THEORIES / "semilattice.th")
    argv = ["kernel-report", semilattice, "--pair-bound", "3", "--s-bound", "2"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: s_bound must be >= pair_bound\n"


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises EPIPE."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_keeps_the_verdict_exit_code(tmp_path, monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["models", str(THEORIES / "three_perm.th"), "--size", "2"]) == 0
        assert capsys.readouterr().err == ""
        # bad input still reads as bad input
        assert main(["models", str(tmp_path / "missing.th"), "--size", "2"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "missing.th" in err[0]
    finally:
        os.close(fd)


def test_closed_stdout_pipe_exits_quietly():
    # the reader closes its end before the report is written; the exit code
    # is the verdict's and nothing is reported at interpreter shutdown
    proc = subprocess.Popen(
        [sys.executable, "-m", "freealg", "models", str(THEORIES / "three_perm.th"),
         "--size", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=str(THEORIES.parent),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_preserve_command(tmp_path, capsys):
    diagram = tmp_path / "d.json"
    diagram.write_text(
        json.dumps(
            {
                "A1": ["x", "y", "z"],
                "A2": ["x", "y", "z"],
                "C": ["x", "z"],
                "f1": {"x": "x", "y": "x", "z": "z"},
                "f2": {"x": "x", "y": "z", "z": "z"},
            }
        )
    )
    code, report = run_json(
        capsys,
        "preserve",
        str(THEORIES / "malcev.th"),
        "--diagram",
        str(diagram),
        "--carrier-bound",
        "3",
        "--witness-bound",
        "7",
        "--max-model-size",
        "2",
    )
    assert code == 0
    assert report["verdict"]["status"] == "proved"
    assert len(report["pairs"]) == 4
    assert all(p["witness"] is not None for p in report["pairs"])


def test_module_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "freealg", "malcev", str(THEORIES / "groups.th")],
        capture_output=True,
        text=True,
        cwd=str(THEORIES.parent),
    )
    assert out.returncode == 0
    assert "mul(x, mul(inv(y), z))" in out.stdout


def test_every_command_emits_valid_json(tmp_path, capsys):
    diagram = tmp_path / "d.json"
    diagram.write_text(
        json.dumps(
            {"A1": ["a"], "A2": ["b"], "C": ["c"], "f1": {"a": "c"}, "f2": {"b": "c"}}
        )
    )
    groups = str(THEORIES / "groups.th")
    invocations = [
        ("prove", groups, "mul(e(), x) = x"),
        ("models", groups, "--size", "2"),
        ("free", groups, "--vars", "x", "--bound", "3"),
        ("idempotent", groups),
        ("derivative", groups, "--term-bound", "4"),
        ("check-preimages", groups, "--term-bound", "4"),
        ("malcev", groups),
        ("hm-chain", groups, "--n", "2"),
        ("shorten", groups, "--chain", "mul(x, mul(inv(y), z)); z", "--s-bound", "6"),
        ("kernel-report", groups),
        ("preserve", groups, "--diagram", str(diagram), "--carrier-bound", "2",
         "--witness-bound", "4"),
    ]
    for argv in invocations:
        code, report = run_json(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert report["command"] == argv[0]
        assert set(report) >= {"command", "theory_hash", "budgets", "params",
                               "verdict", "witnesses", "timing_ms"}
