"""The equivalence corpus of ``tools/equiv.py`` runs and is deterministic.

No digest is pinned: an intended change of behaviour changes the corpus,
and ``tools/equiv.py --against <rev>`` shows which calls it changed.
"""

import os
import subprocess
import sys

from conftest import REPO, load_tool

import laytrop as lt

TOOL = os.path.join(REPO, "tools", "equiv.py")
KERNELS = {
    "p_eval", "p_mul", "mp_mul", "eval_sort", "primary_decomposition", "full_form", "resultant",
    "layered_permanent", "layer_permanent", "primary_pair_resultant", "discriminant", "layer_pow_int",
    "ls_pow", "grid_scan", "corner_locus_on_grid", "mp_eval", "theta", "theta_min", "corner_support",
    "is_corner_root", "is_ell_root", "component_index", "is_primary", "separable_factor", "slopes",
    "corner_roots", "homogeneous_parts", "psi_a", "cli",
}


def test_corpus_is_deterministic_and_covers_every_kernel_and_sort():
    equiv = load_tool("equiv")
    lines = list(equiv.corpus_lines(lt, 3, 600))
    assert len(lines) == 600
    assert lines == list(equiv.corpus_lines(lt, 3, 600))
    fields = [line.split("\t") for line in lines]
    assert [int(f[0]) for f in fields] == list(range(600))
    assert {f[1] for f in fields} == KERNELS
    assert {f[2] for f in fields if f[1] != "cli"} == set(equiv.SORT_NAMES)
    outcomes = [f[3] for f in fields if f[1] != "cli"]
    assert any(o.startswith("!InvalidLayer") for o in outcomes)
    assert any(o.startswith("LayeredScalar(") for o in outcomes)
    assert lines != list(equiv.corpus_lines(lt, 4, 600))


def test_the_corpus_meets_the_permanent_state_bound():
    """Some permanents run under a lowered state bound and are refused by
    it, on seed 1 and on seed 2; the library's bound is restored after
    each call."""
    equiv = load_tool("equiv")
    for seed in (1, 2):
        fields = [line.split("\t") for line in equiv.corpus_lines(lt, seed, 2000)]
        refused = [f[0] for f in fields if f[1] == "layered_permanent" and f[3] == "!OutOfRange"]
        assert len(refused) >= 1, seed
        assert lt.resultants.MAX_PERMANENT_STATES == 2 ** 17


def test_the_command_line_prints_the_corpus():
    src = os.path.dirname(os.path.dirname(lt.__file__))
    out = subprocess.run(
        [sys.executable, TOOL, "--seed", "5", "--calls", "80", "--src", src],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == list(load_tool("equiv").corpus_lines(lt, 5, 80))
