"""Command-line front end.

Every subcommand is deterministic for fixed inputs and flags.  Exit
codes: 0 ok, 2 parse error, 3 domain error, 4 precondition violation.
The default sort is the naturals; ``run`` adds ``try --sort posq`` to
the message of a ``LayerNotDivisible``, which only ``factor`` and
``integrate`` can raise.

A subcommand is one row of ``COMMANDS``.  Its handler prints nothing: it
returns the formatted result twice, as a JSON record and as text lines,
and ``run`` prints one of them.  So a refused call prints nothing on
stdout, even when it is refused while its result is being formatted.

A process runs one subcommand, so each handler imports the kernels
beyond parsing and univariate arithmetic (``factor``, ``resultants``,
``calculus``, ``multivar``) itself, and only ``--json`` loads ``json``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from itertools import islice, product

from .errors import (
    DomainError,
    LayerNotDivisible,
    OutOfRange,
    ParseError,
    PreconditionViolated,
)
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


def _poly_record(f: LayeredPoly):
    return [
        [exp, format_value(c.value), format_layer(c.layer)] for exp, c in f.terms()
    ]


def _scalar_result(x):
    """The record and the text lines of a scalar (or BOTTOM) result."""
    if x is BOTTOM:
        return {"scalar": None}, ["bottom"]
    text = format_scalar(x)
    return {"scalar": text, "value": format_value(x.value), "layer": format_layer(x.layer)}, [text]


def _poly_result(f: LayeredPoly):
    text = format_poly(f)
    return {"poly": text, "coeffs": _poly_record(f)}, [text]


def _parse_univar(text, sort) -> LayeredPoly:
    f = parse_poly(text, sort)
    if not isinstance(f, LayeredPoly):
        raise PreconditionViolated("this command needs a univariate polynomial")
    return f


def _cmd_eval(args, sort):
    f = parse_poly(args.poly, sort)
    coords = [parse_scalar(t) for t in args.at.split(",")]
    if not isinstance(f, LayeredPoly):
        from . import multivar

        return _scalar_result(multivar.mp_eval(f, tuple(coords), sort))
    if len(coords) != 1:
        raise PreconditionViolated("univariate evaluation takes one coordinate")
    return _scalar_result(p_eval(f, coords[0], sort))


def _cmd_truncate(args, sort):
    text = format_layer(truncate_layer(parse_layer(args.layer), args.q))
    return {"layer": text}, [text]


def _cmd_factor(args, sort):
    from . import factor

    decomp = factor.primary_decomposition(_parse_univar(args.poly, sort), sort)
    factors = [
        {"root": format_value(pf.root_value), "degree": pf.degree, "poly": _poly_record(pf.poly)}
        for pf in decomp.factors
    ]
    record = {
        "unit": format_scalar(decomp.unit),
        "factors": factors,
        "promoted_sort": decomp.promoted_sort,
        "lambda_power": decomp.lambda_power,
    }
    lines = [f"unit {record['unit']}"]
    if decomp.lambda_power:
        lines.append(f"variable power {decomp.lambda_power}")
    for entry, pf in zip(factors, decomp.factors):
        lines.append(f"factor root={entry['root']} degree={pf.degree} poly={format_poly(pf.poly)}")
    if decomp.promoted_sort:
        lines.append("promoted to posq layers")
    return record, lines


def _cmd_roots(args, sort):
    f = _parse_univar(args.poly, sort)
    roots = [{"root": format_value(r), "multiplicity": m} for r, m in corner_roots(f)]
    lines = [f"root={r['root']} multiplicity={r['multiplicity']}" for r in roots]
    return {"roots": roots}, lines or ["no corner roots"]


def _cmd_resultant(args, sort):
    from . import resultants

    f = _parse_univar(args.f, sort)
    g = _parse_univar(args.g, sort)
    if not args.explain:
        return _scalar_result(resultants.resultant(f, g, sort))
    value, syl, layer_matrix, layer_perm = resultants.explain_resultant(f, g, sort)
    record, lines = _scalar_result(value)
    record["sylvester"] = None if syl is None else [
        [None if e is None else format_scalar(e) for e in row]
        for row in resultants.dense_rows(syl, None)
    ]
    record["layer_sylvester"] = None if layer_matrix is None else [
        [format_value(e) for e in row] for row in layer_matrix.entries
    ]
    record["layer_permanent"] = None if layer_perm is None else format_value(layer_perm)
    explained = []
    if syl is not None:
        explained.append("sylvester:")
        explained += ["  " + " ".join("_" if e is None else e for e in row) for row in record["sylvester"]]
    if layer_matrix is not None:
        explained.append("layer sylvester:")
        explained += ["  " + " ".join(row) for row in record["layer_sylvester"]]
        explained.append(f"layer permanent: {record['layer_permanent']}")
    return record, explained + lines


def _cmd_derivative(args, sort):
    from . import calculus

    return _poly_result(calculus.derivative(_parse_univar(args.poly, sort), sort))


def _cmd_integrate(args, sort):
    from . import calculus

    return _poly_result(calculus.antiderivative(_parse_univar(args.poly, sort), sort))


def _cmd_discriminant(args, sort):
    from . import calculus

    return _scalar_result(calculus.discriminant(_parse_univar(args.poly, sort), sort))


def _cmd_separable(args, sort):
    from . import calculus

    f = _parse_univar(args.poly, sort)
    disc = calculus.separable_discriminant(f, sort)
    flag = calculus.has_separable_layer(disc, f.degree)
    record = {
        "separable": flag,
        "discriminant_layer": None if disc is BOTTOM else format_layer(disc.layer),
        "expected_layer": format_value(calculus.separable_sort(f.degree)),
    }
    return record, ["true" if flag else "false"]


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
    from . import multivar

    region = _parse_region(args.region)
    layers = [parse_layer(t) for t in args.layers.split(",")]
    f = parse_poly(args.poly, sort)
    F = to_multipoly(f, len(region))
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
    return {"csv": lines}, lines


def _primary_from_layers(root, layers):
    """Monic primary polynomial with the given ascending coefficient layers."""
    t = len(layers)
    coeffs = {t: ONE}
    for i, layer in enumerate(layers):
        coeffs[i] = LayeredScalar(Fraction(root) * (t - i), Fraction(layer))
    return poly(coeffs)


# conjecture-search refuses a larger argument with OutOfRange before any
# triple is built.  Its work is at most the limit times one triple at the
# largest degree; the costliest accepted search, degree 4 with layers 1..2
# and 5000 triples, took 2.8-3.1 s over five runs on 2 vCPU (Python 3.11).
MAX_SEARCH_DEGREE = 4
MAX_SEARCH_LAYER = 8
MAX_SEARCH_LIMIT = 5000


def _cmd_conjecture_search(args, sort):
    from . import resultants

    for flag, given, bound in (
        ("--max-degree", args.max_degree, MAX_SEARCH_DEGREE),
        ("--max-layer", args.max_layer, MAX_SEARCH_LAYER),
        ("--limit", args.limit, MAX_SEARCH_LIMIT),
    ):
        if given > bound:
            raise OutOfRange(f"conjecture-search {flag} {given} exceeds the limit of {bound}")
    # the ascending coefficient layers of each primary of root 1, by degree
    shapes = [
        layers
        for deg in range(1, args.max_degree + 1)
        for layers in product(range(1, args.max_layer + 1), repeat=deg)
    ]
    primary = functools.cache(lambda layers: _primary_from_layers(1, layers))
    res = functools.cache(lambda f, p: resultants.resultant(f, p, sort))  # each res(f, p) once
    checked = 0
    violations = []
    for f, g, h in islice((map(primary, t) for t in product(shapes, repeat=3)), max(args.limit, 0)):
        checked += 1
        gh = p_mul(g, h, sort)
        lhs = resultants.resultant(f, gh, sort)
        rhs = ls_mul(res(f, g), res(f, h), sort)
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
    lines = []
    for v in violations:
        lines.append(f"violation: f={v['f']} g={v['g']} h={v['h']} lhs={v['lhs']} rhs={v['rhs']}")
        lines.append(f"  reproduce: {v['reproduce']}")
    return {"checked": checked, "violations": violations}, lines or [
        f"no violations in {checked} primary triples"
    ]


_POLY = {"poly": {}}

# (name, handler, help, {argument: add_argument options}); every subcommand
# also takes --sort and --json, added after its own arguments.
COMMANDS = (
    ("eval", _cmd_eval, "evaluate a polynomial at a point",
     {"poly": {}, "--at": {"required": True, "help": "comma-separated scalars v:l"}}),
    ("factor", _cmd_factor, "primary decomposition", _POLY),
    ("roots", _cmd_roots, "corner roots with multiplicities", _POLY),
    ("resultant", _cmd_resultant, "layered resultant of two polynomials",
     {"f": {}, "g": {}, "--explain": {"action": "store_true"}}),
    ("derivative", _cmd_derivative, "layered derivative", _POLY),
    ("integrate", _cmd_integrate, "layered antiderivative", _POLY),
    ("discriminant", _cmd_discriminant, "resultant of f with its derivative", _POLY),
    ("separable", _cmd_separable, "discriminant-layer separability test", _POLY),
    ("layermap", _cmd_layermap, "CSV raster of the layering map",
     {"poly": {},
      "--region": {"required": True, "help": "lo:hi:step per axis, comma-separated"},
      "--layers": {"required": True, "help": "coordinate layers, comma-separated"}}),
    ("truncate", _cmd_truncate, "truncate a layer at a bound",
     {"layer": {}, "--q": {"required": True, "type": int}}),
    ("conjecture-search", _cmd_conjecture_search,
     "search primary triples for surpassing-multiplicativity violations; "
     "values multiply and layers only surpass, so only a layer can give a violation",
     {"--max-degree": {"type": int, "default": 2, "help": f"at most {MAX_SEARCH_DEGREE}"},
      "--max-layer": {"type": int, "default": 2, "help": f"at most {MAX_SEARCH_LAYER}"},
      "--limit": {"type": int, "default": 200,
                  "help": f"triples to check, at most {MAX_SEARCH_LIMIT}"}}),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="laytrop", description="exact layered tropical algebra"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in COMMANDS:
        sub = subs.add_parser(name, help=help_text, description=help_text)
        for argument, options in arguments.items():
            sub.add_argument(argument, **options)
        sub.add_argument(
            "--sort",
            default="nat",
            help="sorting semiring: unit|super|trunc:<q>|nat|posq|q (default nat)",
        )
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        sub.set_defaults(handler=handler)
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sort = parse_sort(args.sort)
        record, lines = args.handler(args, sort)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        hint = "; try --sort posq" if isinstance(err, LayerNotDivisible) else ""
        print(f"domain error: {err}{hint}", file=sys.stderr)
        return 3
    except PreconditionViolated as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 4
    if args.json:
        import json

        print(json.dumps({**record, "sort": str(sort)}, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
