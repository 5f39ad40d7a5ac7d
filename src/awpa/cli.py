"""Command-line interface.

Exit codes: 0 = all requested checks pass, 1 = a mathematical check failed
(the first counterexample is printed), 2 = usage error.  Output is
deterministic for a fixed seed; --json switches to machine-readable output
whose element strings round-trip through the element parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import frobenius
from .cyclotomic import (
    CycloParams,
    CyclotomicAlgebra,
    InductionStructure,
    nakayama_counterexample,
)
from .engine import AwpaAlgebra
from .errors import AwpaError, ParseError, TooLarge
from .frobenius import FrobAlg
from .textio import element_str, parse_element
from .verify import run_suite

BUILTIN_USAGE = (
    "trivial, clifford, dual_numbers, cyclic_group[:m], taft[:q[:ydeg]], s3"
)


def nonnegative_int(text: str) -> int:
    """argparse type of counts: a negative value is a usage error (exit 2)."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return int(text)


def resolve_algebra(spec: str) -> FrobAlg:
    """Builtin names (``name:p1:p2``) resolve before file paths; collisions
    are warned."""
    name, _, rest = spec.partition(":")
    if name in frobenius.BUILTINS:
        F = frobenius.builtin(name, rest.split(":") if rest else [])
        if os.path.exists(spec):
            print(
                f"warning: {spec!r} is both a builtin and a file; using the builtin",
                file=sys.stderr,
            )
        return F
    if os.path.exists(spec):
        return FrobAlg.load(spec)
    raise ParseError(f"no builtin or file named {spec!r} (builtins: {BUILTIN_USAGE})")


def load_params_file(path: str) -> tuple[FrobAlg, CycloParams]:
    with open(path) as fh:
        data = json.load(fh)
    F = FrobAlg.from_json_dict(data)
    if "cyclotomic" not in data:
        raise ParseError(f"{path!r} has no 'cyclotomic' section")
    return F, CycloParams.from_json_dict(F, data["cyclotomic"])


def _emit(args, payload: dict, text_lines: list[str]):
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_algebra_verify(args) -> int:
    F = resolve_algebra(args.spec)
    lines = [
        f"algebra: {F.name}",
        f"dim: {F.dim}",
        f"delta: {F.delta}",
        f"theta: {F.theta}",
        f"conductor: {F.conductor}",
        "invariants: associative, unital, graded, trace nondegenerate, "
        "Nakayama finite order and diagonalizable",
        "PASS",
    ]
    payload = {
        "algebra": F.name,
        "dim": F.dim,
        "delta": F.delta,
        "theta": F.theta,
        "conductor": F.conductor,
        "valid": True,
    }
    _emit(args, payload, lines)
    return 0


def cmd_mul(args) -> int:
    F = resolve_algebra(args.algebra)
    ctx = AwpaAlgebra(F, args.n)
    a = parse_element(ctx, args.left)
    b = parse_element(ctx, args.right)
    result = ctx.mul(a, b)
    _emit(
        args,
        {"result": element_str(result)},
        [element_str(result)],
    )
    return 0


def cmd_nf(args) -> int:
    F = resolve_algebra(args.algebra)
    ctx = AwpaAlgebra(F, args.n)
    result = parse_element(ctx, args.element)
    _emit(args, {"result": element_str(result)}, [element_str(result)])
    return 0


def cmd_grdim(args) -> int:
    F = resolve_algebra(args.algebra)
    ctx = AwpaAlgebra(F, args.n)
    counts = ctx.graded_dimension(args.cutoff)
    if F.delta > 0:
        series = ctx.graded_dimension_series(args.cutoff)
        ok = counts == series
        lines = [
            f"monomial counts by degree: {counts}",
            f"series n!(grdim F/(1-q^delta))^n:  {series}",
            "PASS" if ok else "FAIL: counts do not match the closed form",
        ]
        _emit(args, {"counts": counts, "series": series, "match": ok}, lines)
        return 0 if ok else 1
    lines = [f"polynomial-layer counts (delta = 0): {counts}"]
    _emit(args, {"counts": counts}, lines)
    return 0


def cmd_dual_basis(args) -> int:
    F = resolve_algebra(args.algebra)
    duals = F.dual_basis()
    lines = [
        f"{F.basis_labels[i]}^vee = {duals[i]}" for i in range(F.dim)
    ]
    _emit(args, {"duals": [str(d) for d in duals]}, lines)
    return 0


def cmd_nakayama(args) -> int:
    F = resolve_algebra(args.algebra)
    lines = [f"theta: {F.theta}"]
    images = []
    for i in range(F.dim):
        img = F.psi(F.basis_elem(i))
        images.append(str(img))
        lines.append(f"psi({F.basis_labels[i]}) = {img}")
    _emit(args, {"theta": F.theta, "images": images}, lines)
    return 0


def cmd_center(args) -> int:
    F = resolve_algebra(args.algebra)
    ctx = AwpaAlgebra(F, args.n)
    basis = ctx.center_up_to_degree(args.degree)
    lines = [f"central elements with polynomial degree <= {args.degree}: {len(basis)}"]
    lines += [f"  {element_str(z)}" for z in basis]
    _emit(
        args,
        {"dimension": len(basis), "basis": [element_str(z) for z in basis]},
        lines,
    )
    return 0


def cmd_jm(args) -> int:
    F = resolve_algebra(args.algebra)
    ctx = AwpaAlgebra(F, args.n)
    if not 1 <= args.k <= args.n:
        raise ParseError(f"no Jucys-Murphy element J_{args.k} for n={args.n}")
    jk = ctx.from_wreath(ctx.jucys_murphy(args.k))
    _emit(args, {"result": element_str(jk)}, [element_str(jk)])
    return 0


def cmd_suite(args) -> int:
    F = resolve_algebra(args.algebra)
    counts, failures = run_suite(F, args.n, seed=args.seed, instances=args.instances)
    lines = [f"suite: algebra={args.algebra} n={args.n} seed={args.seed}"]
    for name, cnt in counts:
        lines.append(f"  {name}: {cnt} instances")
    if failures:
        lines.append(f"FAIL: {failures[0]}")
    else:
        lines.append(f"PASS ({sum(c for _, c in counts)} instances)")
    _emit(
        args,
        {
            "seed": args.seed,
            "instances": dict(counts),
            "failures": failures,
            "pass": not failures,
        },
        lines,
    )
    return 1 if failures else 0


def cmd_cyclotomic(args) -> int:
    F, params = load_params_file(args.params)
    qalg = CyclotomicAlgebra(params, args.n)
    if args.action == "gram":
        _, invertible = qalg.gram_matrix()
        lines = [
            f"level: {qalg.d}",
            f"dim: {qalg.dim()}",
            f"gram invertible: {invertible}",
            "PASS" if invertible else "FAIL: degenerate trace pairing",
        ]
        _emit(
            args,
            {"level": qalg.d, "dim": qalg.dim(), "invertible": invertible},
            lines,
        )
        return 0 if invertible else 1
    if args.action == "nakayama":
        failure = nakayama_counterexample(qalg, args.pairs, args.seed)
        ok = failure is None
        sym = qalg.is_symmetric()
        lines = [
            f"level: {qalg.d} theta: {F.theta}",
            f"Nakayama identity on {args.pairs} random pairs (seed {args.seed}): "
            + ("PASS" if ok else f"FAIL at a={failure[0]}, b={failure[1]}"),
            f"symmetric (theta | level): {sym}",
        ]
        _emit(
            args,
            {"level": qalg.d, "identity": ok, "symmetric": sym, "seed": args.seed},
            lines,
        )
        return 0 if ok else 1
    if args.action == "basis":
        dim = qalg.dim()
        lines = [
            f"level: {qalg.d}",
            f"dim A_n^C = n!(d dim F)^n = {dim}",
        ]
        payload = {"level": qalg.d, "dim": dim}
        if args.n > 1:
            ind = InductionStructure(params, args.n - 1)
            ind.verify_free_basis()
            lhs, rhs = ind.mackey_dimensions()
            lines.append(f"free right-module basis over A_{args.n - 1}^C: PASS")
            lines.append(f"cyclotomic Mackey dimensions: {lhs} = {rhs}")
            payload["mackey"] = [lhs, rhs]
            if lhs != rhs:
                lines.append("FAIL")
                _emit(args, payload, lines)
                return 1
        lines.append("PASS")
        _emit(args, payload, lines)
        return 0
    raise AwpaError(f"unknown cyclotomic action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awpa",
        description="Exact computations in affine wreath product algebras.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="Frobenius algebra operations")
    alg_sub = p_alg.add_subparsers(dest="action", required=True)
    p_verify = alg_sub.add_parser("verify", help="build and validate an algebra")
    p_verify.add_argument("spec", help=f"builtin ({BUILTIN_USAGE}) or JSON file")
    p_verify.set_defaults(func=cmd_algebra_verify)

    p_mul = sub.add_parser("mul", help="normal-form product of two elements")
    p_mul.add_argument("--algebra", required=True)
    p_mul.add_argument("--n", type=nonnegative_int, required=True)
    p_mul.add_argument("left")
    p_mul.add_argument("right")
    p_mul.set_defaults(func=cmd_mul)

    p_nf = sub.add_parser("nf", help="normal form of an element expression")
    p_nf.add_argument("--algebra", required=True)
    p_nf.add_argument("--n", type=nonnegative_int, required=True)
    p_nf.add_argument("element")
    p_nf.set_defaults(func=cmd_nf)

    p_gr = sub.add_parser("grdim", help="graded dimension counts vs the closed form")
    p_gr.add_argument("--algebra", required=True)
    p_gr.add_argument("--n", type=nonnegative_int, required=True)
    p_gr.add_argument("--cutoff", type=nonnegative_int, required=True)
    p_gr.set_defaults(func=cmd_grdim)

    p_db = sub.add_parser("dual-basis", help="left dual basis of F")
    p_db.add_argument("--algebra", required=True)
    p_db.set_defaults(func=cmd_dual_basis)

    p_nk = sub.add_parser("nakayama", help="Nakayama automorphism of F")
    p_nk.add_argument("--algebra", required=True)
    p_nk.set_defaults(func=cmd_nakayama)

    p_ct = sub.add_parser("center", help="central elements up to polynomial degree")
    p_ct.add_argument("--algebra", required=True)
    p_ct.add_argument("--n", type=nonnegative_int, required=True)
    p_ct.add_argument("--degree", type=nonnegative_int, required=True)
    p_ct.set_defaults(func=cmd_center)

    p_jm = sub.add_parser("jm", help="Jucys-Murphy element J_k")
    p_jm.add_argument("--algebra", required=True)
    p_jm.add_argument("--n", type=nonnegative_int, required=True)
    p_jm.add_argument("--k", type=int, required=True)
    p_jm.set_defaults(func=cmd_jm)

    p_st = sub.add_parser("suite", help="randomized property suite")
    p_st.add_argument("--algebra", required=True)
    p_st.add_argument("--n", type=nonnegative_int, required=True)
    p_st.add_argument("--seed", type=int, default=0)
    p_st.add_argument("--instances", type=nonnegative_int, default=200)
    p_st.set_defaults(func=cmd_suite)

    p_cy = sub.add_parser("cyclotomic", help="cyclotomic quotient computations")
    p_cy.add_argument("action", choices=["gram", "nakayama", "basis"])
    p_cy.add_argument("--params", required=True, help="algebra JSON with a cyclotomic section")
    p_cy.add_argument("--n", type=nonnegative_int, required=True)
    p_cy.add_argument("--seed", type=int, default=0)
    p_cy.add_argument("--pairs", type=nonnegative_int, default=50)
    p_cy.set_defaults(func=cmd_cyclotomic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AwpaError as exc:
        print(f"FAIL: {exc}")
        return 2 if isinstance(exc, (ParseError, TooLarge)) else 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
