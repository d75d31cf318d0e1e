#!/usr/bin/env python3
"""Re-run the mutation checks: break the program on purpose, one row at a time,
and see that the tests named for that row fail.

Each row of ``MUTANTS`` names a file, an exact old text, the new text and the
test ids expected to fail.  For each row the tree is copied to a temporary
directory, the replacement is applied there, and only the named tests run
(``python -m pytest`` with ``PYTHONPATH=src``).  A row is

    killed     when at least one named test fails,
    survived   when they all pass: the tests no longer guard that fault,
    stale      when its old text does not occur exactly once in its file,
    error      when pytest ends otherwise (a test id not found, a crash).

First the named tests run once on an unmodified copy; if any of them fails
there, nothing else runs (exit 2).  The exit status is 1 when a row is not
killed, 0 when every row is.  Nothing is written inside the copied tree's
source, and nothing at all inside the repository.  This script is not part
of tier-1 (like ``perfbench/tests``); the stdlib is all it needs.

    python3 scripts/mutants.py

Still pending as rows (ROADMAP item 16): most mutants that ``CHANGES.md``
describes in prose for earlier changes.  Among them are an unreduced fill-in,
no gcd in ``_divided`` and a missing conjugate in the elimination; tau's
emission multipliers (the ``(1 + [i = j]) a_i w`` and ``w^2`` kinds), whose
code is now the generated ``geometries._emitter`` and needs re-stating there;
nil's ``2 x d_y d_t`` entry set to ``3`` against the exact witness; the
parser's unchecked fold; and an atom-product path that takes its factors in
any order and repeats them, which needs a new pattern and a new consumer, not
one replacement.  A reordered axial second difference in ``_fd_tensions`` is
no row: it moves only oracle residual digits, which the digest masks.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc")
FAILED = re.compile(r"^FAILED (.+?)(?: - .*)?$", re.M)


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


FAMILIES, GEOMETRIES, CLI = "src/polyharm/families.py", "src/polyharm/geometries.py", "src/polyharm/cli.py"
ALGEBRA, PARSER, VERIFY = "src/polyharm/algebra.py", "src/polyharm/parser.py", "src/polyharm/verify.py"
PRINTED_ORDERS = ("tests/test_cli.py::test_generate_ansatz_orders_are_classify_orders_on_the_digest_levels",
                  "tests/test_cli.py::test_generate_ansatz_orders_are_classify_orders_on_monomial_bases")
ORDERS = ("tests/test_families.py::test_kernel_orders_are_classify_orders_on_the_golden_and_digest_systems",
          *PRINTED_ORDERS)
GOLDEN = "tests/test_families.py::test_golden_kernels_are_unchanged"
DIGEST = "tests/test_contract_digest.py::test_contract_digest_is_unchanged"
PRINTER = "tests/test_algebra.py::test_generated_printer_matches_the_reference"
TENSION = "tests/test_geometries.py::test_raw_partial_tension_matches_per_partial_reference"
WRONG_PRODUCT = "tests/test_verify.py::test_product_checks_fail_on_a_wrong_product_operator"

MUTANTS = (
    # kernel orders read from the re-verification, and the ansatz system build
    Mutant("order-one-power-late", FAMILIES, "orders[j] = k\n", "orders[j] = k + 1\n", ORDERS),
    Mutant("order-without-r-max-cut-off", CLI,
           '"order": order if order <= args.r_max else None}', '"order": order}',
           PRINTED_ORDERS + ("tests/test_cli.py::test_generate_ansatz_prints_none_for_an_order_above_the_bound",)),
    Mutant("bound-checked-on-a-trivial-kernel", CLI,
           "if kernel and args.r_max < 1:", "if args.r_max < 1:",
           ("tests/test_cli.py::test_generate_ansatz_with_a_trivial_kernel_needs_no_properness_bound",)),
    Mutant("bound-never-checked", CLI,
           "if kernel and args.r_max < 1:", "if False:",
           ("tests/test_cli.py::test_generate_usage_errors_exit_4_with_one_line",)),
    Mutant("order-matrix-of-the-first-power", FAMILIES,
           "matrix if order == 1 else _rows(tau, len(ordered))", "matrix",
           (GOLDEN, DIGEST)),
    # f2 admissibility read from tau
    Mutant("nil-2x-dy-dt-entry-as-3x", GEOMETRIES,
           '(2, {"x": 1}, 0, "y", "t"),', '(3, {"x": 1}, 0, "y", "t"),',
           ("tests/test_families.py::test_f2_admissibility_from_tau_equals_the_hand_written_conditions[nil]",)),
    Mutant("f2-admissibility-builds-an-all-zero-b", FAMILIES,
           'lambda params: not _all_zero(params["b"])\n            and not g.tension(',
           "lambda params: not g.tension(",
           ("tests/test_families.py::test_f2_admissibility_from_tau_equals_the_hand_written_conditions",)),
    # usage guards and the failure branches of two verify-paper checks
    Mutant("iteration-count-zero-accepted", GEOMETRIES,
           'if r < 1:\n        raise UsageError("iteration count', 'if r < 0:\n        raise UsageError("iteration count',
           ("tests/test_families.py::test_api_usage_guards_refuse_with_their_message",)),
    Mutant("binomial-check-never-fails", VERIFY,
           "if product_chain[n] != expansion:", "if False:", (WRONG_PRODUCT,)),
    Mutant("remark-check-skips-its-formula", VERIFY,
           "if chain[2] != expected or chain[2].is_zero()", "if chain[2].is_zero()", (WRONG_PRODUCT,)),
    # the generated printer and tau's output Terms
    Mutant("printer-digit-guard-catches-type-error", ALGEBRA,
           '"    except ValueError:', '"    except TypeError:',
           ("tests/test_algebra.py::test_a_coefficient_over_the_digit_limit_is_refused_at_printing",
            "tests/test_cli.py::test_oversized_numbers_end_in_a_documented_exit_code")),
    Mutant("printer-exponent-one-as-caret", ALGEBRA,
           "if {pk} == 1 else", "if {pk} == 0 else", (PRINTER, GOLDEN, DIGEST)),
    Mutant("printer-drops-the-exponential", ALGEBRA,
           "[\"if w: f += '*E(' + str(w) + ')'\"]", '["pass"]',
           (PRINTER, "tests/test_parser.py::test_print_parse_round_trip_sol")),
    Mutant("tension-plain-tuple-terms", GEOMETRIES,
           "tuple([tuple.__new__(Term, (tau[k], k[3], k[2], k[1]))", "tuple([(tau[k], k[3], k[2], k[1])",
           (TENSION,)),
    Mutant("tension-ascending-sort", GEOMETRIES,
           "for k in sorted(tau, reverse=True)]))", "for k in sorted(tau)]))", (TENSION,)),
    # the atom-product parse path and one-entry kernel members
    Mutant("atom-path-reads-E-on-every-chart", PARSER,
           'if atoms.exp_var is not None else "()"', 'if True else "()"',
           ("tests/test_parser.py::test_atom_product_path_matches_the_scanner",
            "tests/test_parser.py::test_atom_product_path_scope")),
    Mutant("group-passes-a-plain-tuple-base", PARSER,
           "base = (tuple.__new__(Term, raw[0]) if len(raw) == 1", "base = (raw[0] if len(raw) == 1",
           ("tests/test_parser.py::test_sum_matches_running_sum",)),
    Mutant("one-entry-member-is-the-previous-basis-element", FAMILIES,
           "basis[next(iter(v))] if len(v) == 1", "basis[next(iter(v)) - 1] if len(v) == 1",
           (GOLDEN,)),
    Mutant("members-drop-a-first-term", FAMILIES,
           "for j, c in v.items() for t in basis[j].terms]))",
           "for j, c in v.items() for t in basis[j].terms[1:]]))",
           (GOLDEN,)),
)


def pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True)


def copy(scratch: str, name: str) -> Path:
    return Path(shutil.copytree(ROOT, Path(scratch) / name, ignore=IGNORED))


def outcome(scratch: str, m: Mutant) -> tuple[str, str]:
    """(status, detail) of one row, on its own copy of the tree."""
    tree = copy(scratch, m.name)
    path = tree / m.file
    text = path.read_text()
    if text.count(m.old) != 1:
        return "stale", f"old text occurs {text.count(m.old)} times in {m.file}"
    path.write_text(text.replace(m.old, m.new))
    proc = pytest(tree, m.tests)
    if proc.returncode == 0:
        return "survived", f"{len(m.tests)} test ids passed"
    if proc.returncode == 1:
        return "killed", "failed: " + ", ".join(FAILED.findall(proc.stdout))
    return "error", f"pytest exit {proc.returncode}: " + proc.stdout.strip()[-400:]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="polyharm-mutants-") as scratch:
        tests = sorted({t for m in MUTANTS for t in m.tests})
        baseline = pytest(copy(scratch, "unmodified"), tests)
        if baseline.returncode != 0:
            print("the named tests do not pass on the unmodified tree:")
            print(baseline.stdout.strip()[-2000:])
            return 2
        statuses = []
        for m in MUTANTS:
            status, detail = outcome(scratch, m)
            statuses.append(status)
            print(f"{status:9} {m.name}  ({detail})", flush=True)
    print(f"{statuses.count('killed')} of {len(MUTANTS)} killed")
    return 0 if all(s == "killed" for s in statuses) else 1


if __name__ == "__main__":
    sys.exit(main())
