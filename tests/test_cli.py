"""Command-line surface: subcommands, exit codes, determinism, --json."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import awpa
from awpa import cyclotomic
from awpa.cli import main
from awpa.frobenius import dual_numbers_algebra, clifford_algebra, taft_algebra


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_verify_builtin(capsys):
    code, out, _ = run(capsys, "algebra", "verify", "clifford")
    assert code == 0
    assert "PASS" in out


def test_mul_golden(capsys):
    code, out, _ = run(capsys, "mul", "--algebra", "trivial", "--n", "2", "s[2,1]", "x1")
    assert code == 0
    assert out.strip() == "x2*s[2,1] - 1"


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "--algebra", "clifford", "--n", "2", "b(c,1)*x1")
    assert code == 0
    assert out.strip() == "-x1*b(c,1)"


def test_grdim(capsys):
    code, out, _ = run(
        capsys, "grdim", "--algebra", "dual_numbers", "--n", "1", "--cutoff", "6"
    )
    assert code == 0
    assert "PASS" in out


def test_grdim_n0(capsys):
    code, out, _ = run(
        capsys, "grdim", "--algebra", "dual_numbers", "--n", "0", "--cutoff", "3"
    )
    assert code == 0
    assert "monomial counts by degree: [1, 0, 0, 0]" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "--algebra", "clifford", "--n", "-1", "x1", "x1"],
        ["suite", "--algebra", "clifford", "--n", "2", "--instances", "-5"],
        ["cyclotomic", "nakayama", "--params", "p.json", "--n", "1", "--pairs", "-3"],
        ["grdim", "--algebra", "dual_numbers", "--n", "1", "--cutoff", "-1"],
        ["center", "--algebra", "clifford", "--n", "1", "--degree", "-1"],
    ],
    ids=["n", "instances", "pairs", "cutoff", "degree"],
)
def test_negative_count_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "is negative" in err


def test_dual_basis_and_nakayama(capsys):
    code, out, _ = run(capsys, "dual-basis", "--algebra", "dual_numbers")
    assert code == 0
    assert "1^vee" in out
    code, out, _ = run(capsys, "nakayama", "--algebra", "clifford")
    assert code == 0
    assert "psi(c) = (-1)*c" in out


def test_center(capsys):
    code, out, _ = run(
        capsys, "center", "--algebra", "clifford", "--n", "2", "--degree", "2"
    )
    assert code == 0
    assert "x1^2 + x2^2" in out


def test_jm(capsys):
    code, out, _ = run(capsys, "jm", "--algebra", "trivial", "--n", "3", "--k", "3")
    assert code == 0
    assert out.strip() == "s[1,3,2] + s[3,2,1]"


def test_suite_deterministic(capsys):
    args = ["suite", "--algebra", "clifford", "--n", "2", "--seed", "7",
            "--instances", "46"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "PASS" in out1


def test_suite_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "--json", "mul", "--algebra", "clifford", "--n", "2", "s[2,1]", "x1"
    )
    assert code == 0
    payload = json.loads(out)
    # the element string round-trips through the parser
    from awpa.engine import AwpaAlgebra
    from awpa.textio import element_str, parse_element

    ctx = AwpaAlgebra(clifford_algebra(), 2)
    elem = parse_element(ctx, payload["result"])
    assert element_str(elem) == payload["result"]


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--algebra", "trivial", "--n", "2"])  # missing operands
    assert exc.value.code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--algebra", "trivial", "--n", "2", "--weird", "x1", "x1"])
    assert exc.value.code == 2


def test_unreadable_element_exit_2(capsys):
    # text that cannot be read is a usage error: one FAIL line, exit 2
    code, out, _ = run(capsys, "nf", "--algebra", "trivial", "--n", "2", "x9")
    assert code == 2
    assert out == "FAIL: no generator x9 for n=2\n"


def test_missing_algebra_exit_2(capsys):
    code, out, _ = run(capsys, "algebra", "verify", "/nonexistent/path.json")
    assert code == 2
    assert out.startswith("FAIL: no builtin or file named")


def test_math_failure_exit_1(capsys, tmp_path, monkeypatch):
    # failed mathematical checks exit 1: an algebra that fails validation
    # (BadSpec), a singular Gram matrix and a suite counterexample
    data = dual_numbers_algebra().to_json_dict()
    data["trace"] = ["0", "0"]
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "algebra", "verify", str(bad))
    assert code == 1 and out.startswith("FAIL: ")
    monkeypatch.setattr(cyclotomic.CyclotomicAlgebra, "gram_matrix", lambda self: (None, False))
    code, out, _ = run(capsys, "cyclotomic", "gram", "--params", str(dual_params(tmp_path)), "--n", "1")
    assert code == 1 and out.endswith("FAIL: degenerate trace pairing\n")
    monkeypatch.setattr("awpa.cli.run_suite", lambda *a, **k: ([("stub", 1)], ["stub failure"]))
    code, out, _ = run(capsys, "suite", "--algebra", "trivial", "--n", "2")
    assert code == 1 and out.endswith("FAIL: stub failure\n")


def test_repeated_basis_labels_exit_1(capsys, tmp_path):
    """Cl with its labels given as 1, 1 would print s_1 x_1 as
    x2*s[2,1] - 1 - b(1,1), which reads back as another element; the
    algebra is refused as other bad specs are."""
    data = clifford_algebra().to_json_dict()
    data["basis"] = ["1", "1"]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "mul", "--algebra", str(path), "--n", "2", "s[2,1]", "x1")
    assert (code, out) == (1, "FAIL: basis labels repeat\n")


def test_builtin_file_collision_warns(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "clifford"
    bad.write_text("{}")
    code, out, err = run(capsys, "algebra", "verify", "clifford")
    assert code == 0
    assert "both a builtin and a file" in err


def test_cyclotomic_commands(capsys, tmp_path):
    F = dual_numbers_algebra()
    data = F.to_json_dict()
    data["cyclotomic"] = {"e": [1], "c": [["z"]]}
    path = tmp_path / "dual_cyclo.json"
    path.write_text(json.dumps(data))

    code, out, _ = run(capsys, "cyclotomic", "gram", "--params", str(path), "--n", "1")
    assert code == 0 and "invertible: True" in out

    code, out, _ = run(
        capsys, "cyclotomic", "nakayama", "--params", str(path), "--n", "1",
        "--seed", "3", "--pairs", "25"
    )
    assert code == 0 and "PASS" in out and "symmetric (theta | level): True" in out

    code, out, _ = run(capsys, "cyclotomic", "basis", "--params", str(path), "--n", "2")
    assert code == 0 and "PASS" in out


def test_algebra_file_roundtrip_via_cli(capsys, tmp_path):
    F = dual_numbers_algebra()
    path = tmp_path / "dual.json"
    F.dump(path)
    code, out, _ = run(capsys, "algebra", "verify", str(path))
    assert code == 0


def test_builtin_table_covers_cli_names(capsys):
    code, out, _ = run(capsys, "algebra", "verify", "s3")
    assert code == 0 and "algebra: symmetric_group_3" in out
    code, out, _ = run(capsys, "algebra", "verify", "taft:3:1")
    assert code == 0 and "algebra: taft_3" in out


CYCLO = {"e": [1], "c": [["z"]]}
GRAM = ["cyclotomic", "gram", "--params", "PARAMS", "--n", "1"]


def dual_params(directory, section=CYCLO):
    """A params file: the dual numbers with the given cyclotomic section."""
    data = dual_numbers_algebra().to_json_dict()
    data["cyclotomic"] = section
    path = directory / "dual_cyclo.json"
    path.write_text(json.dumps(data))
    return path


MALFORMED = [
    *(pytest.param(["algebra", "verify", spec], {}, CYCLO, code, id=spec)
      for spec, code in [("cyclic_group:x", 2), ("taft:2:y", 2), ("trivial:1", 2),
                         ("taft:abc", 2), ("taft:1", 1)]),
    pytest.param(["jm", "--algebra", "trivial", "--n", "2", "--k", "5"], {}, CYCLO, 2, id="jm-k-above-n"),
    pytest.param(["suite", "--algebra", "clifford", "--n", "0"], {}, CYCLO, 2, id="suite-n0"),
    pytest.param(["mul", "--algebra", "trivial", "--n", "2", "x1", "1/0"], {}, CYCLO, 2, id="zero-denominator"),
    pytest.param(GRAM, {"AWPA_MAX_DIM": "abc"}, CYCLO, 2, id="max-dim-not-an-integer"),
    pytest.param(GRAM, {}, {"c": [["z"]]}, 2, id="cyclotomic-no-e"),
    pytest.param(GRAM, {}, {"e": ["x"], "c": [["z"]]}, 2, id="cyclotomic-e-not-an-integer"),
    pytest.param(GRAM, {}, {"e": [1], "c": 5}, 2, id="cyclotomic-c-not-a-list"),
    pytest.param(GRAM, {}, [1], 2, id="cyclotomic-section-a-list"),
    pytest.param(GRAM, {}, {"e": [2], "c": ["zz"]}, 2, id="cyclotomic-c-entry-a-string"),
    pytest.param(GRAM, {}, {"e": "2", "c": [["z", "z"]]}, 2, id="cyclotomic-e-a-string"),
    pytest.param(GRAM, {}, {"e": [True], "c": [["z"]]}, 2, id="cyclotomic-e-a-bool"),
]


@pytest.mark.parametrize("argv,extra_env,section,code", MALFORMED)
def test_malformed_builtin_params_fail_cleanly(argv, extra_env, section, code, tmp_path):
    """Malformed input ends in one FAIL line, never in a traceback: exit 2
    for text that cannot be read or an argument out of range (``jm --k 5``
    at n = 2, ``suite --n 0``), exit 1 for a readable value that a check
    refuses (``taft:1``)."""
    params = dual_params(tmp_path, section)
    argv = [str(params) if a == "PARAMS" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(awpa.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "awpa.cli", *argv],
        capture_output=True,
        text=True,
        env={**env, **extra_env},
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("FAIL: ") and proc.stdout.count("\n") == 1


SLOT_ONE_REFUSALS = [
    pytest.param(lambda: taft_algebra(2), {"e": [1, 0], "c": [["y*g"], []]},
                 "FAIL: parameter at k=1 is not in F_psi^(1)", id="taft2-not-psi-fixed"),
    pytest.param(lambda: taft_algebra(2), {"e": [0, 1], "c": [[], ["y"]]},
                 "FAIL: parameter at k=2 must have degree 4", id="taft2-wrong-degree"),
    pytest.param(clifford_algebra, {"e": [1, 0], "c": [["c"], []]},
                 "FAIL: parameter at k=1 must be even", id="clifford-odd"),
]


@pytest.mark.parametrize("build,section,line", SLOT_ONE_REFUSALS)
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_slot_one_parameter_refusals(build, section, line, json_flag, capsys, tmp_path):
    """A slot-1 parameter outside F_psi^(k) exits 1 with one exact FAIL line."""
    data = build().to_json_dict()
    data["cyclotomic"] = section
    path = tmp_path / "params.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, *json_flag, "cyclotomic", "gram", "--params", str(path), "--n", "1")
    assert code == 1 and out == line + "\n"


def test_size_refusal_exit_2(capsys, tmp_path, monkeypatch):
    # a matrix above AWPA_MAX_DIM is refused as a usage error, not a counterexample
    monkeypatch.setenv("AWPA_MAX_DIM", "10")
    params = str(dual_params(tmp_path))
    for action, matrix in [("gram", "gram matrix"), ("basis", "induction transition matrix")]:
        code, out, _ = run(capsys, "cyclotomic", action, "--params", params, "--n", "2")
        assert code == 2
        assert out.startswith(f"FAIL: {matrix} would have 64 entries; bound is 10")
        assert out.count("\n") == 1


def test_parse_failure_names_the_reason(capsys):
    code, out, _ = run(capsys, "mul", "--algebra", "trivial", "--n", "2", "x1", "1/0")
    assert code == 2
    assert out == "FAIL: cannot parse factor '1/0': zero denominator in '1/0'\n"


def test_cyclotomic_nakayama_prints_counterexample(capsys, tmp_path, monkeypatch):
    F = dual_numbers_algebra()
    data = F.to_json_dict()
    data["cyclotomic"] = {"e": [1], "c": [["z"]]}
    path = tmp_path / "dual_cyclo.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(
        cyclotomic.CyclotomicAlgebra, "nakayama_identity_holds", lambda self, a, b: False
    )
    code, out, _ = run(
        capsys, "cyclotomic", "nakayama", "--params", str(path), "--n", "1", "--seed", "3"
    )
    assert code == 1
    assert "(seed 3): FAIL at a=" in out and ", b=" in out
    params = cyclotomic.CycloParams.from_json_dict(F, data["cyclotomic"])
    qalg = cyclotomic.CyclotomicAlgebra(params, 1)
    a, b = cyclotomic.nakayama_counterexample(qalg, 50, 3)
    assert f"FAIL at a={a}, b={b}" in out
    assert cyclotomic.nakayama_check(qalg, 50, 3)[0] is False


ALGEBRAS = ["trivial", "clifford", "dual_numbers", "taft:2", "no_such_algebra"]
FACTORS = ["x1", "x3", "b(c,1)", "s[2,1]", "1/2", "1/0", "z", "(1/2 - z)", "()", "("]
JOINS = [" + ", " - ", "*", " - -", "**", "", " "]


@st.composite
def elements(draw):
    """Up to three factors of the element grammar, joined by signs,
    products, runs of them or nothing."""
    text = ""
    for factor in draw(st.lists(st.sampled_from(FACTORS), max_size=3)):
        text += (draw(st.sampled_from(JOINS)) if text else "") + factor
    return text


@st.composite
def argvs(draw):
    """A command line from a small grammar of subcommands, algebras, counts
    (one below zero among them) and element strings; an argument is
    sometimes dropped."""
    elem = elements()
    algebra = draw(st.sampled_from(ALGEBRAS))

    def opts(*flags):
        out = ["--algebra", algebra]
        for flag, top in flags:
            out += [flag, str(draw(st.integers(-1, top)))]
        return out

    commands = {
        "algebra": lambda: ["algebra", "verify", algebra],
        "mul": lambda: ["mul", *opts(("--n", 2)), draw(elem), draw(elem)],
        "nf": lambda: ["nf", *opts(("--n", 2)), draw(elem)],
        "grdim": lambda: ["grdim", *opts(("--n", 2), ("--cutoff", 4))],
        "dual-basis": lambda: ["dual-basis", *opts()],
        "nakayama": lambda: ["nakayama", *opts()],
        "center": lambda: ["center", *opts(("--n", 2), ("--degree", 1))],
        "jm": lambda: ["jm", *opts(("--n", 2), ("--k", 3))],
        "suite": lambda: ["suite", *opts(("--n", 2), ("--instances", 4))],
    }
    argv = commands[draw(st.sampled_from(sorted(commands)))]()
    if draw(st.integers(0, 4)) == 0:
        argv.pop(draw(st.integers(0, len(argv) - 1)))
    return (["--json"] if draw(st.booleans()) else []) + argv


@settings(max_examples=120, deadline=None)
@given(argvs())
def test_argv_fuzz_exit_codes(argv):
    """Every command line ends in exit 0, 1 or 2 (argparse's SystemExit(2)
    included); no other exception escapes ``main``."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
