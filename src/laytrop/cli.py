"""Command-line front end.

Every subcommand is deterministic for fixed inputs and flags.  Exit
codes: 0 ok, 2 parse error, 3 domain error, 4 precondition violation.
The default sort is the naturals; commands that need divisible layers
suggest ``--sort posq`` in their error message.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import islice, product

from . import calculus, factor, multivar, resultants
from .errors import (
    DomainError,
    LayerNotDivisible,
    ParseError,
    PreconditionViolated,
)
from .multivar import MultiPoly
from .parsing import (
    format_poly,
    format_scalar,
    format_value,
    parse_layer,
    parse_poly,
    parse_scalar,
    parse_value,
    to_multipoly,
)
from .polys import LayeredPoly, corner_roots, p_eval, p_mul, poly
from .scalars import BOTTOM, ONE, LayeredScalar, ls_mul, surpasses_L
from .sorts import format_layer, parse_sort, truncate_layer


def _common_flags(sub):
    sub.add_argument(
        "--sort",
        default="nat",
        help="sorting semiring: unit|super|trunc:<q>|nat|posq|q (default nat)",
    )
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _poly_record(f: LayeredPoly):
    return [
        [exp, format_value(c.value), format_layer(c.layer)] for exp, c in f.terms()
    ]


def _scalar_record(x):
    if x is BOTTOM:
        return {"scalar": None}
    return {
        "scalar": format_scalar(x),
        "value": format_value(x.value),
        "layer": format_layer(x.layer),
    }


def _emit_scalar(x, args, sort):
    if args.json:
        record = _scalar_record(x)
        record["sort"] = str(sort)
        print(json.dumps(record, sort_keys=True))
    else:
        print("bottom" if x is BOTTOM else format_scalar(x))


def _parse_univar(text, sort) -> LayeredPoly:
    f = parse_poly(text, sort)
    if isinstance(f, MultiPoly):
        raise PreconditionViolated("this command needs a univariate polynomial")
    return f


def _cmd_eval(args, sort):
    f = parse_poly(args.poly, sort)
    coords = [parse_scalar(t) for t in args.at.split(",")]
    if isinstance(f, MultiPoly):
        value = multivar.mp_eval(f, tuple(coords), sort)
    else:
        if len(coords) != 1:
            raise PreconditionViolated("univariate evaluation takes one coordinate")
        value = p_eval(f, coords[0], sort)
    _emit_scalar(value, args, sort)
    return 0


def _cmd_truncate(args, sort):
    layer = truncate_layer(parse_layer(args.layer), Fraction(args.q))
    if args.json:
        print(json.dumps({"layer": format_layer(layer), "sort": str(sort)}, sort_keys=True))
    else:
        print(format_layer(layer))
    return 0


def _cmd_factor(args, sort):
    f = _parse_univar(args.poly, sort)
    try:
        decomp = factor.primary_decomposition(f, sort)
    except LayerNotDivisible as err:
        raise LayerNotDivisible(f"{err}; try --sort posq") from err
    record = {
        "unit": format_scalar(decomp.unit),
        "factors": [
            {
                "root": format_value(pf.root_value),
                "degree": pf.degree,
                "poly": _poly_record(pf.poly),
            }
            for pf in decomp.factors
        ],
        "promoted_sort": decomp.promoted_sort,
        "lambda_power": decomp.lambda_power,
        "sort": str(sort),
    }
    if args.json:
        print(json.dumps(record, sort_keys=True))
        return 0
    print(f"unit {record['unit']}")
    if decomp.lambda_power:
        print(f"variable power {decomp.lambda_power}")
    for pf in decomp.factors:
        print(
            f"factor root={format_value(pf.root_value)} degree={pf.degree} "
            f"poly={format_poly(pf.poly)}"
        )
    if decomp.promoted_sort:
        print("promoted to posq layers")
    return 0


def _cmd_roots(args, sort):
    f = _parse_univar(args.poly, sort)
    if f.is_zero:
        raise PreconditionViolated("the zero polynomial has no corner roots")
    roots = corner_roots(f)
    if args.json:
        record = {
            "roots": [
                {"root": format_value(r), "multiplicity": m} for r, m in roots
            ],
            "sort": str(sort),
        }
        print(json.dumps(record, sort_keys=True))
        return 0
    if not roots:
        print("no corner roots")
    for r, m in roots:
        print(f"root={format_value(r)} multiplicity={m}")
    return 0


def _matrix_text(matrix):
    rows = []
    for row in matrix.entries:
        rows.append(
            " ".join("_" if e is BOTTOM else format_scalar(e) for e in row)
        )
    return rows


def _cmd_resultant(args, sort):
    f = _parse_univar(args.f, sort)
    g = _parse_univar(args.g, sort)
    value = resultants.resultant(f, g, sort)
    if not args.explain:
        _emit_scalar(value, args, sort)
        return 0
    record = _scalar_record(value)
    record["sort"] = str(sort)
    syl = None
    if not f.is_zero and not g.is_zero and f.degree >= 1 and g.degree >= 1:
        syl = resultants.sylvester(f, g, sort)
    layer_matrix = None
    layer_perm = None
    if syl is not None:
        try:
            layer_matrix = resultants.layer_sylvester(f, g, sort)
            layer_perm = resultants.layer_permanent(layer_matrix)
        except DomainError:
            pass
    if args.json:
        record["sylvester"] = (
            None
            if syl is None
            else [
                [None if e is BOTTOM else format_scalar(e) for e in row]
                for row in syl.entries
            ]
        )
        record["layer_sylvester"] = (
            None
            if layer_matrix is None
            else [[format_value(e) for e in row] for row in layer_matrix.entries]
        )
        record["layer_permanent"] = (
            None if layer_perm is None else format_value(layer_perm)
        )
        print(json.dumps(record, sort_keys=True))
        return 0
    if syl is not None:
        print("sylvester:")
        for line in _matrix_text(syl):
            print(f"  {line}")
    if layer_matrix is not None:
        print("layer sylvester:")
        for row in layer_matrix.entries:
            print("  " + " ".join(format_value(e) for e in row))
        print(f"layer permanent: {format_value(layer_perm)}")
    print("bottom" if value is BOTTOM else format_scalar(value))
    return 0


def _emit_poly(f, args, sort):
    if args.json:
        record = {"poly": format_poly(f), "coeffs": _poly_record(f), "sort": str(sort)}
        print(json.dumps(record, sort_keys=True))
    else:
        print(format_poly(f))


def _cmd_derivative(args, sort):
    _emit_poly(calculus.derivative(_parse_univar(args.poly, sort), sort), args, sort)
    return 0


def _cmd_integrate(args, sort):
    f = _parse_univar(args.poly, sort)
    try:
        out = calculus.antiderivative(f, sort)
    except LayerNotDivisible as err:
        raise LayerNotDivisible(f"{err}; try --sort posq") from err
    _emit_poly(out, args, sort)
    return 0


def _cmd_discriminant(args, sort):
    _emit_scalar(calculus.discriminant(_parse_univar(args.poly, sort), sort), args, sort)
    return 0


def _cmd_separable(args, sort):
    f = _parse_univar(args.poly, sort)
    disc = calculus.separable_discriminant(f, sort)
    expected = calculus.separable_sort(f.degree)
    flag = disc.layer == expected
    if args.json:
        print(
            json.dumps(
                {
                    "separable": flag,
                    "discriminant_layer": format_layer(disc.layer),
                    "expected_layer": format_value(expected),
                    "sort": str(sort),
                },
                sort_keys=True,
            )
        )
    else:
        print("true" if flag else "false")
    return 0


def _parse_region(text):
    region = []
    for axis in text.split(","):
        parts = axis.split(":")
        if len(parts) != 3:
            raise ParseError(f"region axis {axis!r} is not lo:hi:step")
        try:
            region.append(tuple(parse_value(p) for p in parts))
        except ParseError as err:
            raise ParseError(f"region axis {axis!r} is not lo:hi:step: {err}") from None
    return region


def _cmd_layermap(args, sort):
    region = _parse_region(args.region)
    layers = [parse_layer(t) for t in args.layers.split(",")]
    f = parse_poly(args.poly, sort)
    F = to_multipoly(f, len(region)) if isinstance(f, LayeredPoly) else f
    rows = multivar.grid_scan(F, region, layers, sort)
    header = [f"x{i + 1}" for i in range(F.arity)] + [
        "value",
        "layer",
        "csupp",
        "component",
    ]
    lines = [",".join(header)]
    for row in rows:
        component = (
            "" if row.component is None else ";".join(format_value(e) for e in row.component)
        )
        lines.append(
            ",".join(
                [format_value(v) for v in row.point]
                + [
                    format_value(row.value),
                    format_layer(row.theta),
                    str(row.csupp),
                    component,
                ]
            )
        )
    if args.json:
        print(json.dumps({"csv": lines, "sort": str(sort)}, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def _primary_from_layers(root, layers, sort):
    """Monic primary polynomial with the given ascending coefficient layers."""
    t = len(layers)
    coeffs = {t: ONE}
    for i, layer in enumerate(layers):
        coeffs[i] = LayeredScalar(Fraction(root) * (t - i), Fraction(layer))
    return poly(coeffs)


def _cmd_conjecture_search(args, sort):
    max_degree = args.max_degree
    max_layer = args.max_layer
    layer_range = range(1, max_layer + 1)
    checked = 0
    violations = []

    def primaries():
        for deg in range(1, max_degree + 1):
            for layers in product(layer_range, repeat=deg):
                yield _primary_from_layers(1, layers, sort)

    def triples():
        """(f, res_f, g, h) lazily; res_f memoizes res(f, .) for one f."""
        for f in primaries():
            res_f = {}
            for g in primaries():
                for h in primaries():
                    yield f, res_f, g, h

    for f, res_f, g, h in islice(triples(), max(args.limit, 0)):
        checked += 1
        gh = p_mul(g, h, sort)
        lhs = resultants.resultant(f, gh, sort)
        for p in (g, h):
            if p not in res_f:
                res_f[p] = resultants.resultant(f, p, sort)
        rhs = ls_mul(res_f[g], res_f[h], sort)
        if not surpasses_L(lhs, rhs, sort):
            violations.append(
                {
                    "f": format_poly(f),
                    "g": format_poly(g),
                    "h": format_poly(h),
                    "lhs": format_scalar(lhs),
                    "rhs": format_scalar(rhs),
                    "reproduce": (
                        f'laytrop resultant "{format_poly(f)}" '
                        f'"{format_poly(gh)}" --sort {sort}'
                    ),
                }
            )
    if args.json:
        print(
            json.dumps({"checked": checked, "sort": str(sort), "violations": violations}, sort_keys=True)
        )
        return 0
    if violations:
        for v in violations:
            print(
                f"violation: f={v['f']} g={v['g']} h={v['h']} "
                f"lhs={v['lhs']} rhs={v['rhs']}"
            )
            print(f"  reproduce: {v['reproduce']}")
    else:
        print(f"no violations in {checked} primary triples")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="laytrop", description="exact layered tropical algebra"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("eval", help="evaluate a polynomial at a point")
    sub.add_argument("poly")
    sub.add_argument("--at", required=True, help="comma-separated scalars v:l")
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_eval)

    sub = subs.add_parser("factor", help="primary decomposition")
    sub.add_argument("poly")
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_factor)

    sub = subs.add_parser("roots", help="corner roots with multiplicities")
    sub.add_argument("poly")
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_roots)

    sub = subs.add_parser("resultant", help="layered resultant of two polynomials")
    sub.add_argument("f")
    sub.add_argument("g")
    sub.add_argument("--explain", action="store_true")
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_resultant)

    sub = subs.add_parser("derivative", help="layered derivative")
    sub.add_argument("poly")
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_derivative)

    sub = subs.add_parser("integrate", help="layered antiderivative")
    sub.add_argument("poly")
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_integrate)

    sub = subs.add_parser("discriminant", help="resultant of f with its derivative")
    sub.add_argument("poly")
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_discriminant)

    sub = subs.add_parser("separable", help="discriminant-layer separability test")
    sub.add_argument("poly")
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_separable)

    sub = subs.add_parser("layermap", help="CSV raster of the layering map")
    sub.add_argument("poly")
    sub.add_argument("--region", required=True, help="lo:hi:step per axis, comma-separated")
    sub.add_argument("--layers", required=True, help="coordinate layers, comma-separated")
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_layermap)

    sub = subs.add_parser("truncate", help="truncate a layer at a bound")
    sub.add_argument("layer")
    sub.add_argument("--q", required=True, type=int)
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_truncate)

    sub = subs.add_parser(
        "conjecture-search",
        help="search primary triples for surpassing-multiplicativity violations",
    )
    sub.add_argument("--max-degree", type=int, default=2)
    sub.add_argument("--max-layer", type=int, default=2)
    sub.add_argument("--limit", type=int, default=200)
    _common_flags(sub)
    sub.set_defaults(handler=_cmd_conjecture_search)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sort = parse_sort(args.sort)
        return args.handler(args, sort)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 3
    except PreconditionViolated as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
