"""The randomized identity suite itself: coverage and determinism."""

import pytest

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
