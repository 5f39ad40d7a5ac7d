"""The package's internal cross-checks raise InternalInconsistency.

Each check compares two independent computations of one fact.  The tests
force a disagreement by monkeypatching one side and expect the typed error;
the last test shows that the checks stay active under ``python -O``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import awpa
from awpa import cyclotomic
from awpa.cyclotomic import CyclotomicAlgebra, InductionStructure, make_params
from awpa.engine import AwpaAlgebra
from awpa.errors import AwpaError, InternalInconsistency
from awpa.frobenius import (
    check_frobenius_morphism,
    clifford_algebra,
    cyclic_group_algebra,
    dual_numbers_algebra,
)

import oracles


def test_is_internal_inconsistency_an_awpa_error():
    assert issubclass(InternalInconsistency, AwpaError)


def test_is_central_routes_must_agree(monkeypatch):
    ctx = AwpaAlgebra(clifford_algebra(), 2)
    z = ctx.x(1, 2) + ctx.x(2, 2)
    assert ctx.is_central(z)
    monkeypatch.setattr(ctx, "_structural_center_check", lambda z: "forced")
    with pytest.raises(InternalInconsistency, match="disagree"):
        ctx.is_central(z)


def _dual_quotient(n, entries=None):
    F = dual_numbers_algebra()
    return CyclotomicAlgebra(make_params(F, entries or {1: [F.from_label("z")]}), n)


def test_chi_factor_order(monkeypatch):
    Q = _dual_quotient(2)
    monkeypatch.setattr(Q, "_factors", [Q.ctx.x(1), Q.ctx.s(1)])
    with pytest.raises(InternalInconsistency, match="factor order"):
        Q.chi(1)


def test_rewrite_degree():
    Q = _dual_quotient(1)
    Q._chi_cache[(1,)] = Q.ctx.x(1, Q.d + 1)
    with pytest.raises(InternalInconsistency, match="leading term"):
        Q._rewrite_elem(1)


def test_right_module_basis_count(monkeypatch):
    F = dual_numbers_algebra()
    ind = InductionStructure(make_params(F, {1: [F.zero_elem()]}), 1)
    full = ind.right_module_basis()
    monkeypatch.setattr(ind, "right_module_basis", lambda: full[:-1])
    with pytest.raises(InternalInconsistency, match="count"):
        ind.verify_free_basis()


def test_right_module_basis_freeness(monkeypatch):
    F = dual_numbers_algebra()
    ind = InductionStructure(make_params(F, {1: [F.zero_elem()]}), 1)
    monkeypatch.setattr(cyclotomic.linalg, "inverse", lambda mat: None)
    with pytest.raises(InternalInconsistency, match="not free"):
        ind.verify_free_basis()


def _identity_tau(F):
    return [[F.scalar(1 if i == j else 0) for j in range(F.dim)] for i in range(F.dim)]


def test_antihom_nakayama_compatibility(monkeypatch):
    F = cyclic_group_algebra(3)  # commutative: the identity is an anti-automorphism
    tau = _identity_tau(F)
    assert check_frobenius_morphism(F, F, tau, anti=True)
    cycle = [{(i + 1) % 3: F.scalar(1)} for i in range(3)]
    monkeypatch.setattr(F, "_psi_rows", [cycle])  # theta stays 1: psi reads cycle, psi^-1 the identity
    with pytest.raises(InternalInconsistency, match="psi"):
        check_frobenius_morphism(F, F, tau, anti=True)


def test_antihom_dual_basis_identity(monkeypatch):
    F = cyclic_group_algebra(3)
    tau = _identity_tau(F)
    real = F.dual_of_basis
    monkeypatch.setattr(F, "dual_of_basis", lambda elems: [-d for d in real(elems)])
    with pytest.raises(InternalInconsistency, match="dual-basis"):
        check_frobenius_morphism(F, F, tau, anti=True)


def test_min_double_coset_minimality(monkeypatch):
    assert oracles.min_double_cosets((2,), (2,))
    length = oracles.length
    monkeypatch.setattr(oracles, "length", lambda p: -length(p))  # longest first
    with pytest.raises(InternalInconsistency, match="not minimal"):
        oracles.min_double_cosets((2,), (2,))


def test_freeness_check_survives_optimize(tmp_path):
    """Under python -O the cyclotomic basis command still reports a non-free
    basis as a failure instead of printing PASS."""
    F = dual_numbers_algebra()
    data = F.to_json_dict()
    data["cyclotomic"] = {"e": [1], "c": [["z"]]}
    params = tmp_path / "dual_cyclo.json"
    params.write_text(json.dumps(data))
    script = (
        "import sys, awpa.linalg\n"
        "real = awpa.linalg.inverse\n"
        "# fail only on the 8x8 transition matrix, not on F's own 2x2 Gram\n"
        "awpa.linalg.inverse = lambda mat: None if len(mat) > 2 else real(mat)\n"
        "from awpa.cli import main\n"
        f"sys.exit(main(['cyclotomic', 'basis', '--params', {str(params)!r}, '--n', '2']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(awpa.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1, proc.stderr
    assert "FAIL: right-module basis is not free" in proc.stdout
    assert "PASS" not in proc.stdout
