"""The randomized identity suite itself: coverage and determinism."""

import pytest

from awpa.cli import main
from awpa.engine import AwpaAlgebra
from awpa.errors import SizeMismatch
from awpa.frobenius import clifford_algebra, trivial_algebra
from awpa.verify import ALL_CHECKS, run_suite


def test_suite_passes_clifford():
    counts, failures = run_suite(clifford_algebra(), 2, seed=1, instances=46)
    assert not failures
    assert sum(c for _, c in counts) == 46


def test_suite_passes_n1():
    counts, failures = run_suite(trivial_algebra(), 1, seed=1, instances=12)
    assert not failures


@pytest.mark.parametrize("make,instances", [(trivial_algebra, 46), (clifford_algebra, 23)])
def test_suite_passes_n4(make, instances):
    """At n = 4 the checks reach their distant-index branches: the distant
    Coxeter relation, Delta_i against a far s_j and the distant intertwiners.
    Seed 1 draws an index with a distant partner in all three, on both
    algebras."""
    counts, failures = run_suite(make(), 4, seed=1, instances=instances)
    assert not failures
    assert sum(c for _, c in counts) == instances


def test_suite_reports_failures(monkeypatch, capsys):
    """A wrong t-element fails the suite: at most three failures, and the CLI
    prints the first as a FAIL line and exits 1."""
    real = AwpaAlgebra.t_element
    monkeypatch.setattr(
        AwpaAlgebra, "t_element", lambda ctx, i, j, k=1: real(ctx, i, j, k) + real(ctx, i, j, k)
    )
    _, failures = run_suite(trivial_algebra(), 2, seed=1, instances=46)
    assert 1 <= len(failures) <= 3
    code = main(["suite", "--algebra", "trivial", "--n", "2", "--seed", "1", "--instances", "46"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[-1] == f"FAIL: {failures[0]}"


def test_suite_rejects_n0():
    with pytest.raises(SizeMismatch, match="needs n >= 1"):
        run_suite(clifford_algebra(), 0)


def test_suite_deterministic():
    a = run_suite(clifford_algebra(), 2, seed=5, instances=30)
    b = run_suite(clifford_algebra(), 2, seed=5, instances=30)
    assert a == b


def test_all_checks_have_names():
    names = [name for name, _ in ALL_CHECKS]
    assert len(names) == len(set(names))
