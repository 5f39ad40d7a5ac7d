"""Byte-identity of CLI output: each command runs through ``main`` in text
and in ``--json`` mode, and its stdout must equal the file under
``tests/golden/`` with the same name.  The goldens are fixed outputs of the
program; a change that alters any of them is a change of output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import awpa
from awpa.cli import main
from awpa.frobenius import dual_numbers_algebra

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "dual-basis-taft3": ["dual-basis", "--algebra", "taft:3"],
    "dual-basis-clifford": ["dual-basis", "--algebra", "clifford"],
    "dual-basis-s3": ["dual-basis", "--algebra", "s3"],
    "nakayama-taft3": ["nakayama", "--algebra", "taft:3"],
    "nakayama-taft4": ["nakayama", "--algebra", "taft:4"],
    "nakayama-dual-numbers": ["nakayama", "--algebra", "dual_numbers"],
    "center-clifford-n2-d2": ["center", "--algebra", "clifford", "--n", "2", "--degree", "2"],
    "center-taft2-n2-d1": ["center", "--algebra", "taft:2", "--n", "2", "--degree", "1"],
    "jm-clifford-n3-k3": ["jm", "--algebra", "clifford", "--n", "3", "--k", "3"],
    "jm-taft3-n2-k2": ["jm", "--algebra", "taft:3", "--n", "2", "--k", "2"],
    "suite-taft3-n2": ["suite", "--algebra", "taft:3", "--n", "2", "--instances", "60"],
    "suite-clifford-n3": ["suite", "--algebra", "clifford", "--n", "3", "--instances", "60"],
    "mul-clifford": ["mul", "--algebra", "clifford", "--n", "2", "s[2,1]", "x1^3"],
    "mul-taft3": ["mul", "--algebra", "taft:3", "--n", "2", "s[2,1]", "x1^2*b(y,g)"],
    "nf-taft3-n3": ["nf", "--algebra", "taft:3", "--n", "3", "b(y,g,1)*x2^2*s[3,1,2]"],
    "grdim-dual-numbers-n2-c8": ["grdim", "--algebra", "dual_numbers", "--n", "2", "--cutoff", "8"],
    "grdim-clifford-n2-c3": ["grdim", "--algebra", "clifford", "--n", "2", "--cutoff", "3"],
    "algebra-verify-taft4": ["algebra", "verify", "taft:4"],
    "cyclotomic-gram": ["cyclotomic", "gram", "--params", "PARAMS", "--n", "1"],
    "cyclotomic-nakayama": ["cyclotomic", "nakayama", "--params", "PARAMS", "--n", "1"],
    "cyclotomic-basis": ["cyclotomic", "basis", "--params", "PARAMS", "--n", "2"],
}


def dual_numbers_params(directory: Path) -> Path:
    """The dual-numbers algebra with the level-one cyclotomic parameters
    that tests/test_cli.py uses."""
    data = dual_numbers_algebra().to_json_dict()
    data["cyclotomic"] = {"e": [1], "c": [["z"]]}
    path = directory / "dual_cyclo.json"
    path.write_text(json.dumps(data))
    return path


def golden_path(name: str, as_json: bool) -> Path:
    return GOLDEN / f"{name}.{'json' if as_json else 'txt'}"


def run_case(name: str, as_json: bool, capsys, directory: Path) -> str:
    argv = [str(dual_numbers_params(directory)) if a == "PARAMS" else a for a in CASES[name]]
    code = main((["--json"] if as_json else []) + argv)
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, as_json, capsys, tmp_path):
    expected = golden_path(name, as_json).read_text()
    assert run_case(name, as_json, capsys, tmp_path) == expected


OPTIMIZED_RUN = """
import io, json, sys
from contextlib import redirect_stdout
from awpa.cli import main
out = {"__debug__": __debug__}
for name, argv in json.loads(sys.argv[1]).items():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out[name] = [code, buf.getvalue()]
sys.stdout.write(json.dumps(out))
"""


def test_text_goldens_under_python_O(tmp_path):
    """The text-mode cases in one ``python -O`` process, which strips every
    ``assert``: the package's own checks must not depend on them.  (pytest
    under -O would show nothing, as its asserts are stripped too.)"""
    params = str(dual_numbers_params(tmp_path))
    cases = {name: [params if a == "PARAMS" else a for a in argv] for name, argv in CASES.items()}
    env = dict(os.environ, PYTHONPATH=str(Path(awpa.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN, json.dumps(cases)],
        capture_output=True, text=True, env=env, check=True,
    )
    out = json.loads(proc.stdout)
    assert out.pop("__debug__") is False
    assert out == {name: [0, golden_path(name, False).read_text()] for name in CASES}
