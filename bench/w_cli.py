"""Workload ``cli``: one op is one ``python -m laytrop.cli ...`` subprocess.

Ops run one at a time.  Each cycle holds one valid call of each of the 11
subcommands plus a second ``eval`` (multivariate), a seeded share of them
with ``--json``, and four grammar-mutated calls, one of each mutation kind:

* ``drop``     -- the ':' or the layer of one scalar is dropped;
* ``zero_den`` -- one scalar value gets the denominator 0;
* ``bad_sort`` -- ``--sort`` names no sort;
* ``arity``    -- a coordinate or positional argument is missing or extra.

A valid call must exit 0 and print what the same call prints in-process;
a mutated call must exit 2, 3 or 4.  Any exit code outside {0, 2, 3, 4},
a traceback on stderr, or a call that hits the per-op time guard counts as
a failed op.  Inputs are never filtered for known defects.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction as F

import calib
import ref

GUARD_S = 10.0
FLOOR_REF_MS = 70.0  # reference time of a bare ``python -c pass``
MUTATIONS = ("drop", "zero_den", "bad_sort", "arity")
BAD_SORTS = ("trunc:0", "trunc:x", "real", "nat2", "trunc:-1", "Q")
SCALAR = re.compile(r"(-?\d+(?:/\d+)?):(inf|-?\d+(?:/\d+)?)")


def _num(v):
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _scalar(rng):
    return f"{_num(F(rng.randint(-9, 9), rng.choice((1, 1, 2))))}:{rng.choice((1, 2, 3))}"


def _poly_text(rng, deg):
    """A monic polynomial of the given degree with seeded lower terms."""
    terms = ["x^%d" % deg if deg > 1 else "x"]
    for e in range(deg - 1, -1, -1):
        if e == 0 or rng.random() < 0.6:
            c = _scalar(rng)
            terms.append(c if e == 0 else (f"{c}*x" if e == 1 else f"{c}*x^{e}"))
    return " + ".join(terms)


def _separable_text(rng, m):
    """x^m + ... with distinct integer roots, written out coefficient by coefficient."""
    roots = sorted(rng.sample(range(1, 12), m), reverse=True)
    terms = ["x^%d" % m]
    acc = 0
    for k, r in enumerate(roots, start=1):
        acc += r
        e = m - k
        terms.append(f"{acc}:1" if e == 0 else (f"{acc}:1*x" if e == 1 else f"{acc}:1*x^{e}"))
    return " + ".join(terms)


class Op:
    __slots__ = ("argv", "mutation")

    def __init__(self, argv, mutation=None):
        self.argv = argv
        self.mutation = mutation


class CliLoad:
    name = "cli"
    n_cycles = 24

    def __init__(self, lt, seed):
        self.lt = lt
        self.cli = importlib.import_module(lt.__name__ + ".cli")
        src = os.path.dirname(os.path.dirname(os.path.abspath(lt.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)
        rng = random.Random(seed)
        self.cycles = [self._cycle(rng) for _ in range(self.n_cycles)]

    # -- inputs --------------------------------------------------------------

    def _valid(self, rng):
        def flags(sort=None):
            out = [] if sort is None else ["--sort", sort]
            return out + (["--json"] if rng.random() < 0.3 else [])

        multi = " + ".join(
            f"{_scalar(rng)}*x1^{rng.randint(0, 2)}*x2^{rng.randint(0, 2)}" for _ in range(3)
        )
        return [
            ["eval", _poly_text(rng, rng.randint(1, 4)), f"--at={_scalar(rng)}"] + flags(),
            ["eval", multi, f"--at={_scalar(rng)},{_scalar(rng)}"] + flags("posq"),
            ["factor", _poly_text(rng, rng.randint(2, 4))] + flags(rng.choice(("posq", "nat"))),
            ["roots", _poly_text(rng, rng.randint(2, 5))] + flags(),
            ["resultant", _poly_text(rng, rng.randint(1, 3)), _poly_text(rng, rng.randint(1, 3))]
            + (["--explain"] if rng.random() < 0.3 else [])
            + flags(rng.choice(("nat", "posq", "trunc:4"))),
            ["derivative", _poly_text(rng, rng.randint(2, 5))] + flags(),
            ["integrate", _poly_text(rng, rng.randint(1, 4))] + flags("posq"),
            ["discriminant", _separable_text(rng, rng.randint(2, 3))] + flags("posq"),
            ["separable", _separable_text(rng, rng.randint(2, 3))] + flags("posq"),
            [
                "layermap",
                f"x1 + x2 + {_scalar(rng)} + {_scalar(rng)}*x1^2",
                f"--region=-2:2:1,{rng.randint(-3, -1)}:{rng.randint(1, 3)}:1",
                f"--layers={rng.randint(1, 3)},{rng.randint(1, 3)}",
            ]
            + flags(),
            ["truncate", str(rng.randint(1, 9)), "--q", str(rng.randint(1, 5))] + flags(),
            [
                "conjecture-search",
                "--max-degree",
                "2",
                "--max-layer",
                "2",
                "--limit",
                str(rng.randint(10, 40)),
            ]
            + flags(),
        ]

    @staticmethod
    def _mutate(rng, argv, kind):
        argv = list(argv)
        if kind == "bad_sort":
            if "--sort" in argv:
                argv[argv.index("--sort") + 1] = rng.choice(BAD_SORTS)
            else:
                argv += ["--sort", rng.choice(BAD_SORTS)]
            return argv
        if kind == "arity":
            if argv[0] == "eval" and "," in argv[2]:
                argv[2] = argv[2].split(",")[0]  # one coordinate for two variables
            elif argv[0] == "resultant":
                del argv[2]  # the second polynomial is missing
            else:
                argv.insert(2, "x")  # an extra positional argument
            return argv
        text = argv[1]
        m = rng.choice(list(SCALAR.finditer(text)))
        if kind == "drop":
            repl = m.group(1) + m.group(2) if rng.random() < 0.5 else m.group(1) + ":"
        else:
            repl = f"{m.group(1).split('/')[0]}/0:{m.group(2)}"
        argv[1] = text[: m.start()] + repl + text[m.end():]
        return argv

    def _cycle(self, rng):
        valid = self._valid(rng)
        ops = [Op(argv) for argv in valid]
        with_scalars = [argv for argv in valid if SCALAR.search(argv[1] if len(argv) > 1 else "")]
        for kind in MUTATIONS:
            base = rng.choice(with_scalars if kind in ("drop", "zero_den") else valid)
            ops.append(Op(self._mutate(rng, base, kind), kind))
        rng.shuffle(ops)
        return ops

    def calibration(self):
        """Ops here are fresh interpreters on either vCPU, so the speed
        reference is a bare interpreter start, sampled every second."""
        return calib.Calibration(
            lambda: self.spawn(["-c", "pass"]), ref_ms=FLOOR_REF_MS, interval=1.0
        )

    def warm_ops(self):
        return [Op(["truncate", "5", "--q", "2"]), Op(["eval", "x + 1:1", "--at", "2:1"])]

    # -- the timed call ------------------------------------------------------

    def spawn(self, args):
        return subprocess.run(
            [sys.executable, *args],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=GUARD_S,
        )

    def execute(self, op):
        """(exit code, stdout, traceback seen, guard hit) of one subprocess."""
        try:
            proc = self.spawn(["-m", "laytrop.cli", *op.argv])
        except subprocess.TimeoutExpired:
            return (None, "", False, True)
        return (proc.returncode, proc.stdout, "Traceback" in proc.stderr, False)

    def execute_inprocess(self, op):
        """The same call through ``laytrop.cli.run`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.run(op.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # the contract breach is the finding; keep going
                traceback.print_exc()
                code = 1
        return (code, out.getvalue(), "Traceback" in err.getvalue(), False)

    # -- oracles (outside the timed phase) -------------------------------------

    def check(self, executed):
        failures = []
        commands = Counter()
        mutated = Counter()
        for key, (op, (code, stdout, tb, guard)) in executed.items():
            commands[op.argv[0]] += 1
            if op.mutation:
                mutated[op.mutation] += 1
            label = " ".join(op.argv)
            if guard:
                failures.append((key, f"time guard ({GUARD_S}s) hit: {label}", False))
                continue
            if tb or code not in (0, 2, 3, 4):
                failures.append((key, f"exit {code}{' with traceback' if tb else ''}: {label}", False))
                continue
            if op.mutation:
                if code == 0:
                    failures.append((key, f"mutated input accepted: {label}", True))
                continue
            if code != 0:
                failures.append((key, f"valid input refused with exit {code}: {label}", True))
                continue
            if self.execute_inprocess(op)[:2] != (code, stdout):
                failures.append((key, f"output differs from the in-process call: {label}", True))
                continue
            problem = self._oracle(op.argv, stdout)
            if problem:
                failures.append((key, f"{problem}: {label}", True))
        mix = {
            "commands": dict(sorted(commands.items())),
            "mutated": dict(sorted(mutated.items())),
            "json_share": round(
                sum("--json" in op.argv for op, _ in executed.values()) / max(1, len(executed)), 4
            ),
        }
        return failures, mix

    def _oracle(self, argv, stdout):
        """Independent answers for the commands that print one scalar."""
        cmd = argv[0]
        as_json = "--json" in argv
        text = stdout.strip()
        if as_json:
            record = json.loads(text)
            text = record.get("scalar") or record.get("layer") or ""
        sort = self.lt.parse_sort(argv[argv.index("--sort") + 1]) if "--sort" in argv else self.lt.NAT
        if cmd == "truncate":
            expect = _num(min(F(argv[1]), F(int(argv[3]))))
            return None if text == expect else f"truncate printed {text}, expected {expect}"
        if cmd == "eval" and "x1" not in argv[1]:
            f = ref.coeffs_of(self.lt.parse_poly(argv[1], sort))
            b = self.lt.parse_scalar(argv[2][len("--at="):])
            v, l = ref.direct_eval(f, (b.value, b.layer), sort)
        elif cmd == "resultant" and "--explain" not in argv:
            f = ref.coeffs_of(self.lt.parse_poly(argv[1], sort))
            g = ref.coeffs_of(self.lt.parse_poly(argv[2], sort))
            v, l = ref.permanent(ref.sylvester(f, g), sort)[:2]
        else:
            return None
        expect = f"{_num(v)}:{'inf' if l == ref.INF else _num(l)}"
        return None if text == expect else f"printed {text}, expected {expect}"
