"""A seeded equivalence corpus: the same calls on two revisions of laytrop.

Run from the repository root:

    python3 tools/equiv.py --seed 1 --calls 60000           # print the corpus
    python3 tools/equiv.py --seed 1 --against HEAD~1        # compare with a revision

The corpus draws its calls from one ``random.Random(seed)``: ``p_eval``,
``p_mul``, ``mp_mul``, ``eval_sort``, ``primary_decomposition``,
``full_form``, ``resultant``, ``layered_permanent``, ``layer_permanent``
of ``layer_sylvester`` and of hand-built dense layer matrices (of at most
4 rows, their size now and then one off, an entry now and then ``inf``,
a float or an int), ``primary_pair_resultant``, ``discriminant``, ``layer_pow_int``, ``ls_pow``,
the rasters ``grid_scan`` and ``corner_locus_on_grid``, the pointwise
``mp_eval``, ``theta``, ``theta_min``, ``corner_support``,
``is_corner_root``, ``is_ell_root`` and ``component_index``, the readers
of the coefficient hull ``is_primary``, ``separable_factor``, ``slopes``,
``corner_roots``, ``homogeneous_parts`` and ``psi_a``, and the CLI's
``run``, under all six sorts.  The layer powers take
exponents 0, negative, fractional, float, ``None`` and text, so a layer
rule that answers before the exponent is normalized shows as a
difference.  Its inputs include layer 0, ``inf``, int layers and values,
negative and fractional layers, 2^40-sized layers, repeated exponent
vectors, arity mismatches, exponents up to 500 and malformed CLI
arguments.  The permanent runs on the Sylvester matrices of the pool's
pairs and on hand-built matrices whose rows may share one scalars tuple,
be empty, carry layer 0, ``inf`` or a layer the sort refuses in a later
row, draw their values over a denominator of their own (1, 7, 11 or
2^31 - 1, so one matrix may mix several primes), or be malformed: a
repeated column, a negative interior column or a scalar short; now and
then one band is dropped or repeated.  The
multivariate calls run on the pool's multipolys of arity 1 to 3, over
regions whose axes have up to five points, one or none (now and then
one axis for all, a square grid), with coordinate layers that may be 0,
``inf`` or outside the sort; ``theta_min`` takes zero to three generators
of one arity, and ``is_ell_root`` a level drawn from the point layers.
Now and then a pointwise call runs on a tropical hyperplane at a point
whose coordinates share one value, so its terms tie; and a repeated
exponent vector of a multipoly now and then has the first term's value,
so the merge adds layers.
A hull reader gets a monic polynomial half the time, a pool polynomial
with its values shifted so that its lead value is 0, so that a point may
lie below the one edge of its hull; else a primary factor of the round's
decompositions.  ``slopes`` and ``homogeneous_parts`` also get the pool's
polynomials as they are, so they meet NotFullForm.
A corner locus has zero, one or two generators, each now and then a
tropical hyperplane, whose corner roots fill the diagonal of a square
grid: the second generator is then folded
at some points only, and its invalid layer raises at a later row, the
first that reaches it.  Each
round builds a small pool of polynomials and points and calls the
kernels on it many times, so the same polynomial object
meets one sort several times in a row and then another sort; the full
forms and products it computes join the pool.  What a call draws never depends on what an
earlier call returned, so both sides make the same calls.

Each call writes one line: its index, kernel, sort and outcome.  The
outcome is an exact rendering of the result (``Fraction`` and int kept
apart, a polynomial's form tag included, a set sorted), a raster's rows
as it yielded them, then ``'!'`` and the exception class if it raised
while streaming, the CLI's exit code with its
stdout and stderr, or ``!`` and the exception class.

``--against <rev>`` takes that revision's ``src`` from the local git
objects (``git archive``), runs the corpus on it and on this tree, each in
a fresh interpreter, and prints the first differing calls and a count by
kernel; the exit code is 1 when any line differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from fractions import Fraction as F

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SORT_NAMES = ("unit", "super", "trunc:3", "nat", "posq", "q")
VALUES = (F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2, 3), F(5), F(-7, 4), 3, -2)
BIG = F(2 ** 40)
HUGE = F(2 ** 6000 + 1)  # its cube exceeds the layer bit limit
# layer groups: a polynomial draws its layers from one, so that many are valid under some sort
LAYER_GROUPS = (
    (F(1),),
    (F(1), F(2), F(3)),
    (F(1), F(2), F(3), F(4), 2, 1),
    (F(1), F(1, 2), F(3, 2), F(2)),
    (F(1), "inf"),
    (F(0), F(1), F(2)),
    (F(1), F(2), F(-1), F(-3, 2), F(0), "inf", BIG),
)
# entries of a hand-built layer matrix
LAYER_ENTRIES = (F(0), F(1), F(2), F(-1), F(1, 2))
# denominators of a hand-built matrix row's values
ROW_DENOMINATORS = (1, 7, 11, 2 ** 31 - 1)
POINT_LAYERS = (F(1), F(1), 1, F(2), F(3), F(1, 2), F(0), F(-1), "inf", 2, BIG, HUGE)
# coordinate layers of a point whose coordinates tie: layer 0 and the
# saturated layers (3 under trunc:3, inf under super) are absorbed by a sum,
# so a tie set's sum may equal the layer of one of its monomials
TIE_LAYERS = (F(0), F(1), F(2), F(3), "inf")
# exponents of the layer powers: ``Sort.pow`` normalizes each (0, negative,
# fractional, float) or refuses it (None, text) before it reads the layer
POW_EXPONENTS = (0, 1, 2, 7, 130, 20000, -1, -3, F(1, 2), F(-3, 2), F(2, 3), F(4), 0.5, 2.0, -1.5, 0.0,
                 None, "x")
# (kernel, relative weight) of the calls a round draws after its decompositions
KERNELS = (
    ("p_eval", 46),
    ("p_mul", 10),
    ("mp_mul", 8),
    ("eval_sort", 12),
    ("full_form", 6),
    ("resultant", 6),
    ("layered_permanent", 6),
    ("layer_permanent", 3),
    ("primary_pair_resultant", 3),
    ("discriminant", 3),
    ("layer_pow_int", 4),
    ("ls_pow", 4),
    ("grid_scan", 3),
    ("corner_locus_on_grid", 3),
    ("mp_eval", 3),
    ("theta", 2),
    ("theta_min", 2),
    ("corner_support", 2),
    ("is_corner_root", 2),
    ("is_ell_root", 2),
    ("component_index", 2),
    ("is_primary", 2),
    ("separable_factor", 2),
    ("slopes", 2),
    ("corner_roots", 2),
    ("homogeneous_parts", 2),
    ("psi_a", 2),
    ("cli", 6),
)
# the readers of the coefficient hull, called on one polynomial (``separable_factor`` with the sort too)
HULL_READERS = ("is_primary", "separable_factor", "slopes", "corner_roots", "homogeneous_parts", "psi_a")
ROUND_CALLS = 240  # calls on one pool of polynomials and points


def render(obj) -> str:
    """An exact, deterministic text of a kernel result."""
    if hasattr(obj, "coeffs") and hasattr(obj, "form"):  # a LayeredPoly
        return f"LayeredPoly({render(list(obj.coeffs.items()))}, {obj.form!r})"
    if isinstance(obj, tuple):
        inner = ", ".join(render(x) for x in obj)
        name = type(obj).__name__
        return f"({inner})" if name == "tuple" else f"{name}({inner})"
    if isinstance(obj, list):
        return "[" + ", ".join(render(x) for x in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ", ".join(sorted(render(x) for x in obj)) + "}"
    if isinstance(obj, F) and max(abs(obj.numerator), obj.denominator).bit_length() > 8192:
        # too long for the interpreter's int-to-decimal limit
        return f"Fraction({hex(obj.numerator)}, {hex(obj.denominator)})"
    return repr(obj)


def _text(v) -> str:
    v = F(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class Corpus:
    def __init__(self, lt, seed: int):
        self.lt = lt
        self.rng = random.Random(seed)
        self.sorts = {name: lt.parse_sort(name) for name in SORT_NAMES}

    # -- inputs ----------------------------------------------------------------

    def layer(self, choice):
        return self.lt.INF if choice == "inf" else choice

    def value(self):
        rng = self.rng
        return rng.choice(VALUES) if rng.random() < 0.6 else F(rng.randint(-9, 9), rng.randint(1, 4))

    def terms(self, wide):
        """(exponent, value, layer) triples of a random univariate
        polynomial; a wide one may have an exponent up to 500."""
        rng = self.rng
        group = rng.choice(LAYER_GROUPS)
        shape = rng.random()
        if shape < 0.06:
            exps = []
        elif shape < 0.12 and wide:
            exps = [0, rng.choice((100, 250, 500))]
        else:
            deg = rng.randint(0, 6)
            exps = [e for e in range(deg + 1) if rng.random() < 0.6] or [deg]
        out = [(e, self.value(), rng.choice(group)) for e in exps]
        if out and rng.random() < 0.4:  # monic
            e, _, l = out[-1]
            out[-1] = (e, F(0), l)
        return out

    def poly(self, terms):
        lt = self.lt
        return lt.poly({e: lt.LayeredScalar(v, self.layer(l)) for e, v, l in terms})

    def poly_text(self, terms) -> str:
        if not terms:
            return "0"
        return " + ".join(
            f"{_text(v)}:{'inf' if l == 'inf' else _text(l)}*x^{e}" for e, v, l in reversed(terms)
        )

    def point(self):
        return self.lt.LayeredScalar(self.value(), self.layer(self.rng.choice(POINT_LAYERS)))

    def multipoly(self, arity):
        rng = self.rng
        exps = (F(0), F(1), F(2), F(1, 2), F(-1))
        group = rng.choice(LAYER_GROUPS)
        pairs = [
            (tuple(rng.choice(exps) for _ in range(arity)),
             self.lt.LayeredScalar(self.value(), self.layer(rng.choice(group))))
            for _ in range(rng.randint(0, 4))
        ]
        if pairs and rng.random() < 0.3:  # a repeated exponent vector, half the time of an equal value
            value = pairs[0][1].value if rng.random() < 0.5 else self.value()
            pairs.append((pairs[0][0], self.lt.LayeredScalar(value, self.layer(rng.choice(group)))))
        return self.lt.multipoly(arity, pairs)

    def hyperplane(self, arity):
        """x_1 + ... + x_n + c, all of layer 1: its corner roots lie where
        two of the terms tie at the maximum, such as on the diagonal of a
        square grid."""
        lt = self.lt
        vectors = [tuple(F(int(i == j)) for i in range(arity)) for j in range(arity + 1)]
        values = [F(0)] * arity + [self.value()]
        return lt.multipoly(arity, [(e, lt.LayeredScalar(v, F(1))) for e, v in zip(vectors, values)])

    def region(self, arity):
        """One (lo, hi, step) triple per axis, of up to five points, one
        or none; now and then a step that is not positive, and now and
        then one axis for all, a square grid."""
        rng = self.rng
        out = []
        for _ in range(arity):
            step = rng.choice((F(1), F(1, 2), F(2, 3), 1))
            if rng.random() < 0.02:
                step = rng.choice((F(0), F(-1)))
            lo = self.value()
            out.append((lo, lo + (rng.choice((0, 1, 1, 2, 3, 4, 5)) - 1) * step, step))
        return out[:1] * arity if rng.random() < 0.4 else out

    def coord_layers(self, arity):
        """Layers of the coordinates: most often 1 or 2, else any point layer."""
        rng = self.rng
        if rng.random() < 0.5:
            return [rng.choice((F(1), F(1), F(2), 1)) for _ in range(arity)]
        return [self.layer(rng.choice(POINT_LAYERS)) for _ in range(arity)]

    def arity_of(self, f):
        """f's arity, and now and then one off it."""
        return max(0, f.arity + self.rng.choice((-1, 1))) if self.rng.random() < 0.04 else f.arity

    def matrix(self):
        """A hand-built LayeredMatrix of at most 5 rows, its columns
        mostly in range.  Some rows share one scalars tuple object, some
        are empty, a few are malformed, and each other row draws its own
        layer group and denominator.  Now and then one band is dropped or
        repeated, so the matrix has one band too few or too many."""
        rng, lt = self.rng, self.lt

        def scalars(k):
            group = rng.choice(LAYER_GROUPS)
            den = rng.choice(ROW_DENOMINATORS)
            # an int part and a small offset over den, so values still tie often
            return tuple(lt.LayeredScalar(F(rng.randint(-2, 2)) + F(rng.randint(-1, 1), den),
                                          self.layer(rng.choice(group))) for _ in range(k))

        n = rng.randint(0, 5)
        cols = n if rng.random() < 0.95 else n + 1
        shared = scalars(rng.randint(1, max(cols, 1)))
        entries = []
        for _ in range(n):
            u = rng.random()
            if u < 0.08:
                entries.append(((), ()))
            elif u < 0.12:  # a repeated column, a negative interior column, or a scalar short
                j = rng.randrange(cols)
                columns, k = rng.choice((((j, j), 2), ((j, -1, j), 3), ((j, j + 1), 1)))
                entries.append((columns, scalars(k)))
            elif u < 0.5 and len(shared) <= cols:
                start = rng.randint(0, cols - len(shared))
                entries.append((range(start, start + len(shared)), shared))
            else:
                columns = tuple(j for j in range(cols) if rng.random() < 0.7)
                entries.append((columns, scalars(len(columns))))
        if entries and rng.random() < 0.06:
            i = rng.randrange(n)
            entries[i:i + 1] = [] if rng.random() < 0.5 else [entries[i]] * 2
        return lt.LayeredMatrix(n, cols, tuple(entries))

    def layer_matrix(self):
        """A hand-built dense LayerMatrix of at most 4 rows over 0, 1, 2,
        -1 and 1/2; now and then its size is one off, and now and then
        one entry is ``inf``, the float 1.5 or an int."""
        rng = self.rng
        n = rng.randint(0, 4)
        rows = [[rng.choice(LAYER_ENTRIES) for _ in range(n)] for _ in range(n)]
        if n and rng.random() < 0.15:
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((float("inf"), 1.5, 2, -1, 0))
        size = n + rng.choice((-1, 1)) if rng.random() < 0.08 else n
        return self.lt.LayerMatrix(size, tuple(map(tuple, rows)))

    def hull_input(self, kernel, derived, factors):
        """Half the time a monic polynomial: a pool polynomial whose values
        are shifted so that its lead value is 0; else a factor of the
        round's decompositions, which is primary.  ``slopes`` and
        ``homogeneous_parts`` also get the pool's polynomials as they are,
        full forms among them, so they meet NotFullForm too."""
        rng, lt = self.rng, self.lt
        if kernel in ("slopes", "homogeneous_parts") and rng.random() < 0.3:
            return rng.choice(derived)
        if rng.random() < 0.5 or not factors:
            f = rng.choice(derived)
            top = f.coeffs[f.degree].value if f.coeffs else 0
            return lt.poly({e: lt.LayeredScalar(c.value - top, c.layer) for e, c in f.coeffs.items()})
        return rng.choice(factors)

    def primary_pair(self):
        """Powers of two monic linear polynomials with one root: an
        equal-root primary pair of degrees 1 to 3."""
        rng, lt = self.rng, self.lt
        root = self.value()
        linears = [lt.poly({1: lt.ONE, 0: lt.LayeredScalar(root, F(rng.randint(1, 3)))}) for _ in range(2)]
        return [lt.p_pow(p, rng.randint(1, 3), self.sorts["nat"]) for p in linears]

    def argv(self, texts, small):
        """One CLI call over the pool's polynomial texts; some are malformed."""
        rng = self.rng
        text = rng.choice(texts)
        f, g = rng.choice(small), rng.choice(small)
        point = f"{_text(self.value())}:{rng.choice(('1', '2', '1/2', 'inf', '0', '3'))}"
        command = rng.choice(
            ("eval", "factor", "roots", "resultant", "resultant --explain", "derivative",
             "integrate", "discriminant", "separable", "layermap", "truncate", "conjecture-search")
        )
        args, options = [text], []
        if command == "eval":
            options = [f"--at={point}"]
        elif command.startswith("resultant"):
            args = [f, g]
            options = command.split()[1:]
            command = "resultant"
        elif command in ("discriminant", "separable"):
            args = [f]
        elif command == "layermap":
            args = [rng.choice(("x1^2 + 1:1*x1*x2 + 2:1", f))]
            options = [f"--region={rng.choice(('-2:2:1', '-1:1:1/2,-1:1:1'))}",
                       f"--layers={rng.choice(('1', '1,2'))}"]
        elif command == "truncate":
            args = [rng.choice(("5", "2", "inf", "1/2", "-1"))]
            options = ["--q", str(rng.randint(1, 4))]
        elif command == "conjecture-search":
            args = []
            options = ["--max-degree", "1", "--max-layer", "2", "--limit", str(rng.randint(1, 6))]
        options += ["--sort", rng.choice(SORT_NAMES)]
        if rng.random() < 0.5:
            options.append("--json")
        # an argument with a leading minus sign follows "--", or argparse reads it as an option
        argv = [command] + options + (["--"] if any(a.startswith("-") for a in args) else []) + args
        if rng.random() < 0.08:  # one character replaced
            i = rng.randrange(len(argv))
            word = argv[i]
            j = rng.randrange(len(word) + 1)
            argv[i] = word[:j] + rng.choice("x^:*+/-1 é") + word[j + 1:]
        return argv

    # -- calls -----------------------------------------------------------------

    def calls(self):
        """Yields (kernel, sort name or CLI arguments, outcome) without end."""
        lt, rng = self.lt, self.rng
        names = [k for k, _ in KERNELS]
        weights = [w for _, w in KERNELS]
        while True:
            terms = [self.terms(wide=i > 0) for i in range(8)]
            polys = [self.poly(t) for t in terms]
            # the polynomials of degree <= 6, for the resultants (the first is one)
            small = [i for i, t in enumerate(terms) if not t or t[-1][0] <= 6]
            texts = [self.poly_text(t) for t in terms]
            points = [self.point() for _ in range(6)]
            arity = rng.randint(1, 2)
            multis = [self.multipoly(arity) for _ in range(3)] + [self.multipoly(arity + 1)]
            derived = list(polys)  # the pool, and the full forms and products computed from it
            decomps = []
            for f in polys:
                for name in ("posq", "q", "nat"):
                    out = _outcome(lt.primary_decomposition, f, self.sorts[name])
                    if not isinstance(out, str):
                        decomps.append(out)
                    yield "primary_decomposition", name, out
            factors = [pf.poly for dec in decomps for pf in dec.factors]
            name = rng.choice(SORT_NAMES)
            for _ in range(ROUND_CALLS):
                if rng.random() < 0.3:
                    name = rng.choice(SORT_NAMES)
                # an equal sort that is not the same object, now and then
                sort = lt.truncated(3) if name == "trunc:3" and rng.random() < 0.2 else self.sorts[name]
                kernel = rng.choices(names, weights)[0]
                if kernel == "p_eval":
                    f = rng.choice(derived)
                    out = _outcome(lt.p_eval, f, rng.choice(points), sort)
                elif kernel == "p_mul":
                    out = _outcome(lt.p_mul, rng.choice(polys), rng.choice(polys), sort)
                    derived.append(out if isinstance(out, lt.LayeredPoly) else polys[0])
                elif kernel == "mp_mul":
                    out = _outcome(lt.mp_mul, rng.choice(multis), rng.choice(multis), sort)
                elif kernel == "eval_sort":
                    pick, b = rng.randrange(1 << 16), self.point()
                    if decomps:
                        dec = decomps[pick % len(decomps)]
                        roots = [pf.root_value for pf in dec.factors] or [F(0)]
                        # a point at a root half of the time
                        b = lt.LayeredScalar(roots[pick % len(roots)], b.layer) if pick & 1 else b
                        out = _outcome(lt.eval_sort, dec, b, sort)
                    else:
                        out = "no decomposition"
                elif kernel == "full_form":
                    out = _outcome(lt.full_form, rng.choice(polys))
                    derived.append(out if isinstance(out, lt.LayeredPoly) else polys[0])
                elif kernel == "resultant":
                    out = _outcome(lt.resultant, polys[rng.choice(small)], polys[rng.choice(small)], sort)
                elif kernel == "layered_permanent":
                    if rng.random() < 0.5:
                        f, g = polys[rng.choice(small)], polys[rng.choice(small)]
                        out = _outcome(lambda: lt.layered_permanent(lt.sylvester(f, g, sort), sort))
                    else:
                        out = _outcome(lt.layered_permanent, self.matrix(), sort)
                elif kernel == "layer_permanent":
                    u = rng.random()
                    if u < 0.3:
                        out = _outcome(lt.layer_permanent, self.layer_matrix())
                    else:
                        f, g = (self.primary_pair() if u < 0.65
                                else [polys[rng.choice(small)] for _ in range(2)])
                        out = _outcome(lambda: lt.layer_permanent(lt.layer_sylvester(f, g, sort)))
                elif kernel == "primary_pair_resultant":
                    if rng.random() < 0.5:
                        f, g = self.primary_pair()
                    else:
                        f, g = polys[rng.choice(small)], polys[rng.choice(small)]
                    out = _outcome(lt.primary_pair_resultant, f, g, sort)
                elif kernel == "discriminant":
                    out = _outcome(lt.discriminant, polys[rng.choice(small)], sort)
                elif kernel == "layer_pow_int":
                    layer = self.layer(rng.choice(POINT_LAYERS))
                    out = _outcome(lt.layer_pow_int, layer, rng.choice(POW_EXPONENTS), sort)
                elif kernel == "ls_pow":
                    out = _outcome(lt.ls_pow, self.point(), rng.choice(POW_EXPONENTS), sort)
                elif kernel == "grid_scan":
                    f = rng.choice(multis)
                    region, layers = self.region(self.arity_of(f)), self.coord_layers(f.arity)
                    out = _outcome(_streamed, lt.grid_scan, f, region, layers, sort)
                elif kernel == "corner_locus_on_grid":
                    f = rng.choice(multis)
                    fs = [f, rng.choice([g for g in multis if g.arity == f.arity])]
                    fs = [self.hyperplane(f.arity) if rng.random() < 0.5 else g for g in fs]
                    count = rng.choice((0, 1, 1, 2, 2, 2))
                    region, layers = self.region(self.arity_of(f)), self.coord_layers(self.arity_of(f))
                    out = _outcome(_streamed, lt.corner_locus_on_grid, fs[:count], region, layers, sort)
                elif kernel in ("mp_eval", "theta", "theta_min", "corner_support", "is_corner_root",
                                "is_ell_root", "component_index"):
                    f = rng.choice(multis)
                    n = self.arity_of(f)
                    if rng.random() < 0.3:  # a tropical hyperplane, at a point whose coordinates tie
                        f, v = self.hyperplane(f.arity), self.value()
                        layers = [self.layer(rng.choice(TIE_LAYERS)) for _ in range(n)]
                        point = tuple(lt.LayeredScalar(v, l) for l in layers)
                    else:
                        point = tuple(lt.LayeredScalar(self.value(), l) for l in self.coord_layers(n))
                    if kernel == "theta_min":
                        same = [g for g in multis if g.arity == f.arity]
                        out = _outcome(lt.theta_min, [rng.choice(same) for _ in range(rng.randint(0, 3))],
                                       point, sort)
                    elif kernel == "is_ell_root":
                        level = self.layer(rng.choice(POINT_LAYERS))
                        out = _outcome(lt.is_ell_root, f, point, level, sort)
                    else:
                        out = _outcome(getattr(lt, kernel), f, point, sort)
                elif kernel in HULL_READERS:
                    f = self.hull_input(kernel, derived, factors)
                    args = (f, sort) if kernel == "separable_factor" else (f,)
                    out = _outcome(getattr(lt, kernel), *args)
                else:
                    argv = self.argv(texts, [texts[i] for i in small])
                    yield kernel, " ".join(argv), _cli(argv)
                    continue
                yield kernel, name, out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 -- the class is the outcome
        return f"!{type(err).__name__}"


def _streamed(raster, *args):
    """The rows a raster yields, then ``!`` and the exception class if it
    raises while streaming; an error at the call propagates."""
    rows = []
    stream = raster(*args)
    try:
        for row in stream:
            rows.append(row)
    except Exception as err:  # noqa: BLE001 -- the class is the outcome
        rows.append(f"!{type(err).__name__}")
    return rows


def _cli(argv):
    from laytrop import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exit_:  # argparse refuses the arguments
            code = exit_.code
        except Exception as exc:  # noqa: BLE001 -- a traceback breaks the CLI's contract
            code = f"!{type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def corpus_lines(lt, seed: int, calls: int):
    """The corpus as text lines, one per call."""
    for i, (kernel, sort, out) in enumerate(itertools.islice(Corpus(lt, seed).calls(), calls)):
        text = out if isinstance(out, str) and out.startswith("!") else render(out)
        yield f"{i}\t{kernel}\t{sort}\t{text}"


def _run_side(src: str, seed: int, calls: int):
    argv = [sys.executable, os.path.abspath(__file__), "--seed", str(seed), "--calls", str(calls), "--src", src]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def compare(rev: str, seed: int, calls: int, show: int) -> int:
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="laytrop-equiv-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tmp, filter="data")
            else:
                tar.extractall(tmp)
        theirs = _run_side(os.path.join(tmp, "src"), seed, calls)
    ours = _run_side(os.path.join(ROOT, "src"), seed, calls)
    differ = [(a, b) for a, b in zip(theirs, ours) if a != b]
    by_kernel = Counter(b.split("\t")[1] for _, b in differ)
    print(f"{len(ours)} calls (seed {seed}); {rev}: {len(theirs)} lines; {len(differ)} differ")
    print("calls by kernel:", dict(sorted(Counter(line.split("\t")[1] for line in ours).items())))
    if len(theirs) != len(ours):
        print("the line counts differ")
    for a, b in differ[:show]:
        print(f"- {a}\n+ {b}")
    if differ:
        print("differing calls by kernel:", dict(sorted(by_kernel.items())))
    return 1 if differ or len(theirs) != len(ours) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--calls", type=int, default=60000)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the laytrop source to run")
    parser.add_argument("--against", metavar="REV", help="compare with this git revision")
    parser.add_argument("--show", type=int, default=10, help="differing calls to print")
    args = parser.parse_args(argv)
    if args.against:
        return compare(args.against, args.seed, args.calls, args.show)
    sys.path.insert(0, os.path.abspath(args.src))
    import laytrop

    out = sys.stdout
    for line in corpus_lines(laytrop, args.seed, args.calls):
        out.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
