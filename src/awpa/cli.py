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


def _emit(args, payload: dict, text_lines: list[str], ok: bool = True) -> int:
    """Print the payload (--json) or the text lines; the exit code of ok."""
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return 0 if ok else 1


def _emit_element(args, elem) -> int:
    text = element_str(elem)
    return _emit(args, {"result": text}, [text])


def _context(args) -> AwpaAlgebra:
    """A_n(F) for F = --algebra and n = --n."""
    return AwpaAlgebra(resolve_algebra(args.algebra), args.n)


def cmd_algebra_verify(args) -> int:
    F = resolve_algebra(args.spec)
    fields = {
        "algebra": F.name,
        "dim": F.dim,
        "delta": F.delta,
        "theta": F.theta,
        "conductor": F.conductor,
    }
    lines = [f"{key}: {value}" for key, value in fields.items()] + [
        "invariants: associative, unital, graded, trace nondegenerate, "
        "Nakayama finite order and diagonalizable",
        "PASS",
    ]
    return _emit(args, {**fields, "valid": True}, lines)


def cmd_mul(args) -> int:
    ctx = _context(args)
    a = parse_element(ctx, args.left)
    b = parse_element(ctx, args.right)
    return _emit_element(args, ctx.mul(a, b))


def cmd_nf(args) -> int:
    ctx = _context(args)
    return _emit_element(args, parse_element(ctx, args.element))


def cmd_grdim(args) -> int:
    ctx = _context(args)
    counts = ctx.graded_dimension(args.cutoff)
    if ctx.F.delta > 0:
        series = ctx.graded_dimension_series(args.cutoff)
        ok = counts == series
        lines = [
            f"monomial counts by degree: {counts}",
            f"series n!(grdim F/(1-q^delta))^n:  {series}",
            "PASS" if ok else "FAIL: counts do not match the closed form",
        ]
        return _emit(args, {"counts": counts, "series": series, "match": ok}, lines, ok)
    return _emit(args, {"counts": counts}, [f"polynomial-layer counts (delta = 0): {counts}"])


def cmd_dual_basis(args) -> int:
    F = resolve_algebra(args.algebra)
    duals = F.dual_basis()
    lines = [f"{F.basis_labels[i]}^vee = {duals[i]}" for i in range(F.dim)]
    return _emit(args, {"duals": [str(d) for d in duals]}, lines)


def cmd_nakayama(args) -> int:
    F = resolve_algebra(args.algebra)
    lines = [f"theta: {F.theta}"]
    images = []
    for i in range(F.dim):
        img = F.psi(F.basis_elem(i))
        images.append(str(img))
        lines.append(f"psi({F.basis_labels[i]}) = {img}")
    return _emit(args, {"theta": F.theta, "images": images}, lines)


def cmd_center(args) -> int:
    basis = [element_str(z) for z in _context(args).center_up_to_degree(args.degree)]
    lines = [f"central elements with polynomial degree <= {args.degree}: {len(basis)}"]
    lines += [f"  {z}" for z in basis]
    return _emit(args, {"dimension": len(basis), "basis": basis}, lines)


def cmd_jm(args) -> int:
    ctx = _context(args)
    if not 1 <= args.k <= args.n:
        raise ParseError(f"no Jucys-Murphy element J_{args.k} for n={args.n}")
    return _emit_element(args, ctx.jucys_murphy(args.k))


def cmd_suite(args) -> int:
    F = resolve_algebra(args.algebra)
    if args.n < 1:
        raise ParseError(f"the relation suite needs n >= 1, got n={args.n}")
    counts, failures = run_suite(F, args.n, seed=args.seed, instances=args.instances)
    lines = [f"suite: algebra={args.algebra} n={args.n} seed={args.seed}"]
    lines += [f"  {name}: {cnt} instances" for name, cnt in counts]
    if failures:
        lines.append(f"FAIL: {failures[0]}")
    else:
        lines.append(f"PASS ({sum(c for _, c in counts)} instances)")
    payload = {
        "seed": args.seed,
        "instances": dict(counts),
        "failures": failures,
        "pass": not failures,
    }
    return _emit(args, payload, lines, not failures)


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
        payload = {"level": qalg.d, "dim": qalg.dim(), "invertible": invertible}
        return _emit(args, payload, lines, invertible)
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
        payload = {"level": qalg.d, "identity": ok, "symmetric": sym, "seed": args.seed}
        return _emit(args, payload, lines, ok)
    # basis
    dim = qalg.dim()
    lines = [f"level: {qalg.d}", f"dim A_n^C = n!(d dim F)^n = {dim}"]
    payload = {"level": qalg.d, "dim": dim}
    ok = True
    if args.n > 1:
        ind = InductionStructure(params, args.n - 1)
        ind.verify_free_basis()
        lhs, rhs = ind.mackey_dimensions()
        lines.append(f"free right-module basis over A_{args.n - 1}^C: PASS")
        lines.append(f"cyclotomic Mackey dimensions: {lhs} = {rhs}")
        payload["mackey"] = [lhs, rhs]
        ok = lhs == rhs
    lines.append("PASS" if ok else "FAIL")
    return _emit(args, payload, lines, ok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awpa",
        description="Exact computations in affine wreath product algebras.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    # arguments several subcommands share, each declared once in a parent
    # parser.  A subcommand inherits its parents' arguments, in order, before
    # its own; so `cyclotomic` takes its leading positional from a parent too,
    # which keeps the order of its help and of its missing-argument errors.
    algebra, n, seed, params, action = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    algebra.add_argument("--algebra", required=True)
    n.add_argument("--n", type=nonnegative_int, required=True)
    seed.add_argument("--seed", type=int, default=0)
    params.add_argument("--params", required=True, help="algebra JSON with a cyclotomic section")
    action.add_argument("action", choices=["gram", "nakayama", "basis"])

    def command(subparsers, name, summary, func, *parents):
        p = subparsers.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    alg_sub = sub.add_parser("algebra", help="Frobenius algebra operations").add_subparsers(
        dest="action", required=True
    )
    p = command(alg_sub, "verify", "build and validate an algebra", cmd_algebra_verify)
    p.add_argument("spec", help=f"builtin ({BUILTIN_USAGE}) or JSON file")
    p = command(sub, "mul", "normal-form product of two elements", cmd_mul, algebra, n)
    p.add_argument("left")
    p.add_argument("right")
    p = command(sub, "nf", "normal form of an element expression", cmd_nf, algebra, n)
    p.add_argument("element")
    p = command(sub, "grdim", "graded dimension counts vs the closed form", cmd_grdim, algebra, n)
    p.add_argument("--cutoff", type=nonnegative_int, required=True)
    command(sub, "dual-basis", "left dual basis of F", cmd_dual_basis, algebra)
    command(sub, "nakayama", "Nakayama automorphism of F", cmd_nakayama, algebra)
    p = command(sub, "center", "central elements up to polynomial degree", cmd_center, algebra, n)
    p.add_argument("--degree", type=nonnegative_int, required=True)
    p = command(sub, "jm", "Jucys-Murphy element J_k", cmd_jm, algebra, n)
    p.add_argument("--k", type=int, required=True)
    p = command(sub, "suite", "randomized property suite", cmd_suite, algebra, n, seed)
    p.add_argument("--instances", type=nonnegative_int, default=200)
    p = command(
        sub, "cyclotomic", "cyclotomic quotient computations", cmd_cyclotomic, action, params, n, seed
    )
    p.add_argument("--pairs", type=nonnegative_int, default=50)
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
