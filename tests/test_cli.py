import collections
import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyharm.oracle  # the oracle tests patch it; the CLI loads it on demand
from polyharm.cli import main
from polyharm.algebra import Expr
from polyharm.families import FAMILIES
from polyharm.geometries import Geometry, by_id, classify
from polyharm.parser import parse
from polyharm.rationals import I

from conftest import subprocess_env
from test_contract_digest import _script as contract_digest_script


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# -- tension ---------------------------------------------------------------------


def test_tension_chain_on_sl2(capsys):
    code, out, _ = run(capsys, "tension", "-g", "sl2", "x*t^2", "-r", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["tau^0: x*t^2", "tau^1: 4*x - 4*y*t", "tau^2: 0"]


def test_tension_of_constant(capsys):
    code, out, _ = run(capsys, "tension", "-g", "sol", "1", "-r", "1")
    assert code == 0
    assert out.strip().splitlines() == ["tau^0: 1", "tau^1: 0"]


def test_tension_log_chain_under_paper_convention(capsys):
    code, out, _ = run(
        capsys,
        "tension",
        "-g",
        "h2xr",
        "--convention",
        "paper",
        "-log1m * t",
        "-r",
        "2",
    )
    assert code == 0
    assert out.strip().splitlines() == [
        "tau^0: -t*log1m",
        "tau^1: 4*t",
        "tau^2: 0",
    ]


# -- classify ----------------------------------------------------------------------


def test_classify_reports_order(capsys):
    code, payload, _ = run_json(capsys, "classify", "-g", "nil", "y^2*t")
    assert code == 0
    assert payload["order"] == 2
    assert payload["chain"][-1] == "0"
    assert payload["geometry"] == "nil"


def test_classify_exceeds_bound_status(capsys):
    code, payload, _ = run_json(
        capsys, "classify", "-g", "sol", "x^2*y^2", "--r-max", "2"
    )
    assert code == 0
    assert payload["order"] is None
    assert payload["status"] == "exceeds-bound"


# -- generate -----------------------------------------------------------------------


def test_generate_axis_family(capsys):
    code, out, _ = run(capsys, "generate", "sol.axis", "-n", "6")
    assert code == 0
    assert "16*x^6 - 120*x^4*E(-2) + 90*x^2*E(-4) - 5*E(-6)" in out
    assert "order 1" in out or "harmonic" in out


def test_generate_ansatz_matrix_and_kernel(capsys):
    code, payload, _ = run_json(
        capsys,
        "generate",
        "--ansatz",
        "x^2, x*E(-1), E(-2)",
        "--geometry",
        "sol",
    )
    assert code == 0
    assert payload["matrix"] == [["2", "0", "1"], ["0", "1", "0"]]
    assert payload["kernel"] == [{"expr": "2*x^2 - E(-2)", "order": 1}]


def test_generate_ansatz_trivial_kernel(capsys):
    code, out, _ = run(capsys, "generate", "--ansatz", "x, y", "--geometry", "sol")
    assert code == 0
    assert "kernel" in out  # harmonic span: x and y are both harmonic
    code, out, _ = run(
        capsys, "generate", "--ansatz", "E(-2), E(2)", "--geometry", "sol"
    )
    assert code == 0
    assert "trivial" in out


def test_generate_ansatz_with_vanishing_images_prints_an_empty_matrix(capsys):
    # every image is zero: no matrix row at all, every member in the kernel
    ansatz = ("--ansatz", "(1+1i)*x, 2i*y - 1/3*x*y, -4*t", "-g", "sol")
    code, out, _ = run(capsys, "generate", *ansatz)
    assert code == 0
    lines = out.splitlines()
    header = lines.index("matrix (rows scaled to primitive integers):")
    assert lines[header + 1].startswith("kernel[0]: ")
    assert not any(line.startswith("  [") for line in lines)
    code, payload, _ = run_json(capsys, "generate", *ansatz)
    assert code == 0
    assert payload["matrix"] == []
    assert payload["kernel"] == [
        {"expr": e, "order": 1} for e in ("t", "x*y - 6i*y", "x")
    ]


def test_generate_ansatz_prints_none_for_an_order_above_the_bound(capsys):
    # t^3 is proper biharmonic on sol: above --r-max 1 it has no order to print
    ansatz = ("-g", "sol", "-r", "2", "--r-max", "1", "--ansatz", "t^2, t^3, t")
    code, out, _ = run(capsys, "generate", *ansatz)
    assert code == 0
    assert out.splitlines()[-3:] == [
        "kernel[0]: t  (order 1)", "kernel[1]: t^2  (order None)", "kernel[2]: t^3  (order None)"]
    code, payload, _ = run_json(capsys, "generate", *ansatz)
    assert (code, [k["order"] for k in payload["kernel"]]) == (0, [1, None, None])


def _assert_printed_orders_are_classify_orders(gid, order, r_max, ansatz):
    argv = ["generate", "-g", gid, "-r", str(order), "--r-max", str(r_max), "--format", "json",
            "--ansatz", ansatz]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    g = by_id(gid)
    kernel = json.loads(out.getvalue())["kernel"]
    assert [k["order"] for k in kernel] == [
        classify(g, parse(k["expr"], g.atoms), r_max).order for k in kernel]


def test_generate_ansatz_orders_are_classify_orders_on_the_digest_levels():
    for gid, ansatz in contract_digest_script().ANSATZ_LEVELS:  # the digest's -r 3 bases
        for r_max in (1, 2, 8):
            _assert_printed_orders_are_classify_orders(gid, 3, r_max, ansatz)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["sol", "nil", "sl2", "h2xr"]), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_generate_ansatz_orders_are_classify_orders_on_monomial_bases(gid, order, r_max, seed):
    # r_max runs below and above the kernel's power, so some orders are cut to None
    rng = random.Random(seed)
    g = by_id(gid)
    names = g.atoms.variables
    weights = range(-2, 3) if g.atoms.exp_var else (0,)
    pool = [(p, w) for p in cartesian(range(4), repeat=len(names)) if sum(p) <= 3 for w in weights]
    basis = [Expr.monomial(g.atoms, 1, dict(zip(names, p)), weight=w)
             for p, w in rng.sample(pool, rng.randint(1, 12))]
    _assert_printed_orders_are_classify_orders(gid, order, r_max, ", ".join(map(str, basis)))


def test_generate_ansatz_with_a_trivial_kernel_needs_no_properness_bound(capsys):
    # the bound is checked only when there is a member to classify
    code, out, err = run(capsys, "generate", "-g", "sol", "--r-max", "0", "--ansatz", "x^2")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "kernel: trivial"


@pytest.mark.parametrize("ansatz", ["x,2*x", "x,x,y^2"])
def test_generate_dependent_ansatz_basis_exits_4(capsys, ansatz):
    code, out, err = run(capsys, "generate", "-g", "nil", "--ansatz", ansatz)
    assert code == 4
    assert out == ""
    assert "ansatz basis is linearly dependent" in err


def test_generate_nil_f2_last_basis_vector(capsys):
    code, payload, _ = run_json(
        capsys,
        "generate",
        "nil.f2",
        "--params",
        "0,0,0,0,0,0,0,0,0,0,0,1",
    )
    assert code == 0
    assert payload["expr"] == "x^3*t"
    assert payload["order"] == 2


@pytest.mark.parametrize("family_id, expr", [("nil.f2", "x^2"), ("sl2.f2", "x*t")])
def test_generate_f2_without_params_uses_the_first_basis_member(capsys, family_id, expr):
    # --params defaults to "1", as for nil.f1/sl2.f1: b = (1, 0, ..., 0)
    code, out, err = run(capsys, "generate", family_id)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"family: {family_id}",
        f"expr: {expr}",
        "result: proper biharmonic (order 2)",
    ]


def test_generate_tower(capsys):
    code, payload, _ = run_json(
        capsys, "generate", "sol.tower", "-r", "3", "--params", "1"
    )
    assert code == 0
    assert payload["order"] == 3


def test_generate_product_generic(capsys):
    code, payload, _ = run_json(
        capsys,
        "generate",
        "product.generic",
        "--g1",
        "h2",
        "--f1",
        "z",
        "--g2",
        "line",
        "--f2",
        "t^3",
    )
    assert code == 0
    assert payload["order"] == 2
    assert payload["expr"] == "z*t^3"


def test_generate_product_generic_on_line_x_line_uses_the_product_id_chart(capsys):
    # the flat plane, as tension -g product:linexline builds it: factors s and t
    code, payload, _ = run_json(capsys, "generate", "product.generic", "--g1", "line",
                                "--f1", "s", "--g2", "line", "--f2", "t^3")
    assert (code, payload["order"], payload["expr"]) == (0, 2, "s*t^3")
    code, out, _ = run(capsys, "tension", "-g", "product:linexline", "s*t^3", "-r", "2")
    assert (code, out.split()[-1]) == (0, "0")


@pytest.mark.parametrize("f1, f2, which", [("t", "t^3", "first"), ("s", "s*t^3", "second")])
def test_generate_product_generic_refuses_a_factor_outside_its_own_variables(capsys, f1, f2, which):
    # t is a constant of the s line, so f1 = t would classify as harmonic there
    code, out, err = run(capsys, "generate", "product.generic", "--g1", "line",
                         "--f1", f1, "--g2", "line", "--f2", f2)
    assert (code, out) == (4, "")
    assert err.splitlines() == [f"error: {which} factor expression uses a symbol of the other factor"]


# One explicit `generate` argv per registry family, with the convention and
# the build parameters it stands for: trailing --params are zero-padded, and
# the s2r.separable line leaves --hol and --params at their defaults.
REGISTRY_ARGV = {
    "sol.tower": (["-r", "3", "--params", "1,2/3,0,-1,1i"], "metric",
                  {"r": 3, "a": [1, Fraction(2, 3), 0, -1], "b": [I, 0, 0, 0]}),
    "sol.axis": (["-n", "7", "--axis", "y"], "metric", {"n": 7, "axis": "y"}),
    "sol.mixed": (["-n", "3", "--params", "2,-1,1/2,3,1i,-2"], "metric",
                  {"n": 3, "a": 2, "b": -1, "alpha": Fraction(1, 2), "beta": 3,
                   "gamma": I, "delta": -2}),
    "sol.h2h3": (["--params", "1,-2,0,3/4"], "metric",
                 {"a2": 1, "a3": -2, "b2": 0, "b3": Fraction(3, 4)}),
    "nil.f1": (["--params", "1,-1", "--hol", "0,1,2i", "--antihol", "3,0,-1/2"], "metric",
               {"a": [1, -1], "hol": [0, 1, 2 * I], "antihol": [3, 0, Fraction(-1, 2)]}),
    "nil.f2": (["--params", ",".join(map(str, range(1, 13)))], "metric",
               {"b": list(range(1, 13))}),
    "sl2.f1": (["--params", "0,2", "--hol", "1", "--antihol", "0,0,3"], "metric",
               {"a": [0, 2], "hol": [1], "antihol": [0, 0, 3]}),
    "sl2.f2": (["--params", "1,0,2"], "metric", {"b": [1, 0, 2, 0, 0, 0]}),
    "h2r.separable": (["--convention", "paper", "--hol", "0,1", "--antihol", "2,1i",
                       "--params", "1,0,-1"], "paper",
                      {"hol": [0, 1], "antihol": [2, I], "p": [1, 0, -1, 0]}),
    "s2r.separable": (["--antihol", "0,3"], "metric",
                      {"hol": [1], "antihol": [0, 3], "p": [0, 0, 1, 0]}),
    "h2r.logxp": (["--params", "2,-3"], "metric", {"p": [2, -3]}),
    "s2r.logxp": (["--convention", "paper", "--params", "1i"], "paper", {"p": [I, 0]}),
}


@pytest.mark.parametrize("family_id", sorted(FAMILIES))
def test_generate_matches_registry_build(capsys, family_id):
    argv, convention, params = REGISTRY_ARGV[family_id]
    code, payload, _ = run_json(capsys, "generate", family_id, *argv)
    geometry, f = FAMILIES[family_id].build(convention, **params)
    assert code == 0
    assert (payload["geometry"], payload["convention"]) == (geometry.name, convention)
    assert payload["expr"] == str(f)


def test_generate_unknown_family(capsys):
    code, _, err = run(capsys, "generate", "sol.unknown")
    assert code == 4
    assert "unknown family" in err


@pytest.mark.parametrize("argv, message", [
    (["nil.f2", "--params", "0,0"], "parameters must not all vanish"),
    (["-g", "sol", "-r", "2", "--r-max", "0", "--ansatz", "t^2, t^3, t"],
     "the properness bound must be at least 1"),
    (["sol.axis"], "sol.axis needs -n"),
    (["product.generic"], "product.generic needs --g1 --f1 --g2 --f2"),
    ([], "generate needs a family id or --ansatz"),
    (["-g", "sol", "--ansatz", "0, x"], "zero expression in ansatz basis"),
    (["-g", "sol", "-r", "0", "--ansatz", "x"], "ansatz order must be at least 1"),
])
def test_generate_usage_errors_exit_4_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, "generate", *argv)
    assert (code, out, err) == (4, "", f"error: {message}\n")


@pytest.mark.parametrize("flags", [
    ["sol.tower", "-r", "1", "--params", "1,,2"],
    ["sol.tower", "-r", "1", "--params", "1,2,"],
    ["nil.f1", "--hol", ",1"],
    ["nil.f1", "--antihol", "1, ,2"],
])
def test_generate_refuses_an_empty_scalar_piece(capsys, flags):
    # an empty piece is not skipped, so it cannot shift the pieces after it
    code, out, err = run(capsys, "generate", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("ansatz", ["x,,y", "x,y,", "x, ,y", ",x", " "])
def test_generate_refuses_an_empty_ansatz_piece(capsys, ansatz):
    # as with --params: every piece of a non-empty --ansatz is parsed
    code, out, err = run(capsys, "generate", "-g", "nil", "--ansatz", ansatz)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_generate_empty_ansatz_is_an_empty_basis(capsys):
    code, out, err = run(capsys, "generate", "-g", "nil", "--ansatz", "")
    assert (code, out, err) == (4, "", "error: empty ansatz basis\n")


# -- oracle --------------------------------------------------------------------------


def test_oracle_line_battery(capsys):
    code, payload, _ = run_json(
        capsys, "oracle", "-g", "line", "t^2", "--samples", "10"
    )
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["residuals"]["max_rel"] < 1e-6
    assert payload["residuals"]["points"] == 10


def test_oracle_sentinel_under_paper_convention(capsys):
    code, payload, _ = run_json(
        capsys,
        "oracle",
        "-g",
        "h2",
        "--convention",
        "paper",
        "z*zb",
        "--samples",
        "10",
    )
    assert code == 0
    assert payload["status"] == "expected-mismatch"
    assert payload["sentinel_ratio"] == pytest.approx(4.0, abs=1e-4)


@pytest.mark.parametrize("gid", ["h2xr", "product:h2xline", "product:nilxh2"])
def test_oracle_sentinel_follows_the_chart_not_its_id(capsys, gid):
    # product:h2xline is h2xr under another id, and nilxh2 carries the same
    # conformal factor: the paper convention reports the ratio on all three
    code, out, _ = run(capsys, "oracle", "-g", gid, "--convention", "paper", "z*zb",
                       "--samples", "10")
    assert code == 0
    assert "status: expected-mismatch" in out.splitlines()
    assert "mean symbolic/oracle ratio: 4.000000" in out.splitlines()


def test_oracle_paper_convention_runs_one_sweep(capsys, monkeypatch):
    # the sentinel ratio comes from the residual sweep's own points: one
    # batched oracle call and one symbolic tension, not a second draw
    calls = collections.Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    fd_tensions = counted("fd", polyharm.oracle._fd_tensions)
    monkeypatch.setattr(polyharm.oracle, "_fd_tensions", fd_tensions)
    monkeypatch.setattr(Geometry, "tension", counted("tension", Geometry.tension))
    code, out, _ = run(capsys, "oracle", "-g", "h2xr", "--convention", "paper", "z*zb")
    assert code == 0
    assert "mean symbolic/oracle ratio: 4.000000" in out.splitlines()
    assert calls == {"fd": 1, "tension": 1}


def test_oracle_paper_convention_checks_the_sentinel(capsys, monkeypatch):
    # a NaN point fails the residuals and the factor-4 sentinel alike, so it
    # is a tolerance failure, not the expected mismatch of the convention
    def one_nan_point(*args, **kwargs):
        fd = fd_tensions(*args, **kwargs)
        fd[0] = float("nan")
        return fd

    fd_tensions = polyharm.oracle._fd_tensions
    monkeypatch.setattr(polyharm.oracle, "_fd_tensions", one_nan_point)
    code, out, _ = run(capsys, "oracle", "-g", "h2", "--convention", "paper",
                       "--samples", "10", "z*zb")
    assert code == 1
    lines = out.splitlines()
    assert "status: tolerance-exceeded" in lines
    assert "mean symbolic/oracle ratio: nan" in lines


def test_json_report_is_strict_json(capsys):
    # E(700) overflows the sweep: max_rel is inf, written as a string
    code, out, _ = run(capsys, "oracle", "-g", "sol", "E(700)", "--format", "json")

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(out, parse_constant=refuse)
    assert code == 1 and payload["status"] == "tolerance-exceeded"
    assert payload["residuals"]["max_rel"] == "inf"
    assert float(payload["residuals"]["max_rel"]) == float("inf")


@pytest.mark.parametrize("convention", ["metric", "paper"])
def test_oracle_tolerance_failure_exits_1_under_both_conventions(capsys, convention):
    # nil has no conformal factor, so the paper convention changes nothing
    code, out, _ = run(capsys, "oracle", "-g", "nil", "--convention", convention, "x^3*y",
                       "--tol", "1e-30", "--samples", "10")
    assert code == 1
    assert "status: tolerance-exceeded" in out.splitlines()


def test_oracle_nan_step_is_usage_error(capsys):
    code, _, err = run(capsys, "oracle", "-g", "line", "t^2", "--step", "nan")
    assert code == 4
    assert "out of range" in err


def test_oracle_zero_samples_is_usage_error(capsys):
    code, _, err = run(capsys, "oracle", "-g", "line", "t^2", "--samples", "0")
    assert code == 4
    assert "at least one sample" in err


def test_oracle_unresolvable_step_is_usage_error(capsys):
    code, _, err = run(capsys, "oracle", "-g", "line", "t^2", "--step", "1e-300")
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "out of range" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text", ["E(2000)", "E(-2000)", "E(800)"])
def test_oracle_float_overflow_is_domain_error(capsys, text):
    code, _, err = run(capsys, "oracle", "-g", "sol", text)
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not finite" in err


FUZZ_EXPRESSIONS = {
    "sol": ("E(2000)", "E(-2000)", "x^3*y*E(2)", "1"),
    "nil": ("x^2*y*t", "1"),
    "sl2": ("y*t^3", "1"),
    "h2": ("log1m", "z*zb", "1"),
    "s2p": ("log1p", "z^2*zb", "1"),
    "h2xr": ("t*log1m", "z^2*zb*t", "1"),
    "s2pxr": ("log1p", "t^3 + z", "1"),
    "line": ("t^2", "1"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(sorted(FUZZ_EXPRESSIONS)).flatmap(
        lambda gid: st.tuples(st.just(gid), st.sampled_from(FUZZ_EXPRESSIONS[gid]))
    ),
    convention=st.sampled_from(["metric", "paper"]),
    step=st.sampled_from(["nan", "inf", "0", "-1e-3", "1e-300", "1e-3", "2e-3", "0.05", "1e3"]),
    levels=st.integers(0, 80),
    samples=st.integers(-1, 40),
    tol=st.sampled_from(["1e-6", "1e-3", "1e-300", "0", "-1", "nan", "inf"]),
)
def test_oracle_numeric_contract_fuzz(case, convention, step, levels, samples, tol):
    # every numeric setting ends in a documented exit code without a traceback
    gid, text = case
    argv = [
        "oracle", "-g", gid, "--convention", convention, f"--step={step}",
        f"--levels={levels}", f"--samples={samples}", f"--tol={tol}", text,
    ]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 1, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()


# -- lemma-check -----------------------------------------------------------------------


def test_lemma_check_passes(capsys):
    code, payload, _ = run_json(
        capsys, "lemma-check", "-n", "2", "--trials", "8", "--seed", "3"
    )
    assert code == 0
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_lemma_check_caps_n(capsys):
    code, _, err = run(capsys, "lemma-check", "-n", "5")
    assert code == 4
    code, _, err = run(capsys, "lemma-check", "--trials", "0")
    assert code == 4
    assert "at least one trial" in err


# -- verify-paper -----------------------------------------------------------------------


def test_verify_paper_full_run(capsys):
    code, payload, _ = run_json(capsys, "verify-paper", "--seed", "11")
    assert code == 0
    assert payload["status"] == "ok"
    statuses = {c["status"] for c in payload["checks"]}
    assert statuses <= {"pass", "expected-mismatch"}
    assert any(c["status"] == "expected-mismatch" for c in payload["checks"])


def test_verify_paper_metric_only_has_no_sentinel(capsys):
    code, payload, _ = run_json(
        capsys, "verify-paper", "--convention", "metric", "--skip-oracle"
    )
    assert code == 0
    ids = {c["id"] for c in payload["checks"]}
    assert not any("sentinel" in i for i in ids)


def test_verify_paper_r_max_one_reports_exceeds_bound(capsys):
    code, payload, _ = run_json(
        capsys, "verify-paper", "--r-max", "1", "--skip-oracle"
    )
    assert code == 1
    status = {c["id"]: c["status"] for c in payload["checks"]}
    # at bound 1 the factors and products of the product checks exceed it,
    # which is never a pass
    for check_id in (
        "sol/tower-order",
        "product/harmonic-times-r-harmonic",
        "product/biharmonic-times-biharmonic-linexline",
        "product/biharmonic-times-biharmonic-h2xr",
    ):
        assert status[check_id] == "exceeds-bound", check_id


def test_verify_paper_is_deterministic(capsys):
    _, first, _ = run_json(capsys, "verify-paper", "--seed", "5", "--skip-oracle")
    _, second, _ = run_json(capsys, "verify-paper", "--seed", "5", "--skip-oracle")
    assert first == second


# -- exit codes and report round trips ------------------------------------------------


@pytest.mark.parametrize("argv, status", [
    (("tension", "-g", "sol", "x^2*y"), "ok"),
    (("classify", "-g", "nil", "y^2*t"), "ok"),
    (("classify", "-g", "nil", "y^2*t", "--r-max", "1"), "exceeds-bound"),
    (("generate", "sol.axis", "-n", "3"), "ok"),
    (("generate", "-g", "sol", "--ansatz", "x^2, x*E(-1), E(-2)"), "ok"),
    (("oracle", "-g", "line", "t^2", "--samples", "10"), "ok"),
    (("oracle", "-g", "sol", "E(300)"), "tolerance-exceeded"),
    (("oracle", "-g", "h2", "--convention", "paper", "z*zb"), "expected-mismatch"),
    (("lemma-check", "-n", "2", "--trials", "8"), "ok"),
    (("verify-paper",), "ok"),
    (("verify-paper", "--r-max", "1", "--skip-oracle"), "failed"),
], ids=["tension", "classify", "classify_exceeds_bound", "generate_family", "generate_ansatz",
        "oracle_ok", "oracle_tolerance_exceeded", "oracle_expected_mismatch", "lemma_check",
        "verify_paper", "verify_paper_failed"])
def test_exit_1_exactly_when_the_report_status_is_a_failure(capsys, argv, status):
    code, payload, err = run_json(capsys, *argv)
    assert payload["status"] == status and err == ""
    assert code == (1 if status in ("failed", "tolerance-exceeded") else 0)


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "tension", "-g", "sol", "2*x^^2")
    assert code == 2
    assert "parse error" in err


def test_exit_code_closure_error(capsys):
    code, _, err = run(capsys, "tension", "-g", "h2xr", "log1m*z")
    assert code == 3
    assert "closure" in err


def test_exit_code_usage_error(capsys):
    code, _, err = run(capsys, "tension", "-g", "nowhere", "x")
    assert code == 4


def test_exit_code_bad_flag_is_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tension"])  # missing expression -> argparse error
    assert exc.value.code == 4
    capsys.readouterr()


def test_deep_parentheses_are_parse_error(capsys):
    code, _, err = run(capsys, "classify", "-g", "nil", "(" * 3000 + "x" + ")" * 3000)
    assert code == 2
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert "position 100" in err


def test_huge_power_of_a_monomial_is_computed_by_squaring(capsys):
    code, out, _ = run(capsys, "classify", "-g", "nil", "x^100000000")
    assert code == 0
    assert "tau^1: 9999999900000000*x^99999998" in out


@pytest.mark.parametrize("text", ["(x+y+t)^200", "2^100000000"])
def test_power_over_budget_is_usage_error(capsys, text):
    code, _, err = run(capsys, "classify", "-g", "nil", text)
    assert code == 4
    assert err.startswith("error: power ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["classify", "-g", "nil", "1" * 5000 + "*x"], 2),
        (["classify", "-g", "nil", "*".join(["2^4000"] * 5 + ["x"])], 4),
        (["oracle", "-g", "nil", "2^2000*x"], 4),
        (["generate", "nil.f1", "--hol=" + "-" * 3000 + "1"], 0),
    ],
)
def test_oversized_numbers_end_in_a_documented_exit_code(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    assert code == expected, err
    assert "Traceback" not in err


EXPRESSION_TOKENS = (
    "x", "y", "t", "z", "zb", "s", "i", "0", "1", "2", "3/4", "7/0", "12", "9" * 40,
    "1" * 5000, "2i", "(1+2i)", "(1-2i)/3", "(-1/2+3i)", "E(2)", "E(-3)", "E(2000)",
    "E(", "E(-", "log1m", "log1p", "+", "-", "*", "/", "^", "(", ")", " ", "@",
    "^2", "^3", "^200", "^100000000", "(" * 60, ")" * 60, "(" * 150, ")" * 150,
)
EXPRESSION_ATOMS = st.sampled_from(
    ["x", "y", "t", "z", "zb", "2i", "3/4", "(1-2i)/3", "E(2)", "E(-3)", "E(2000)",
     "log1m", "log1p"]
)
WELL_FORMED = st.recursive(
    EXPRESSION_ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["^2", "^3", "^200", "^100000000"])).map(
            lambda p: f"({p[0]}){p[1]}"
        ),
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from([("tension", "-r", "1"), ("classify", "--r-max", "2")]),
    gid=st.sampled_from(["sol", "nil", "sl2", "h2", "s2p", "h2xr", "s2pxr", "line"]),
    text=st.one_of(
        st.lists(st.sampled_from(EXPRESSION_TOKENS), min_size=1, max_size=12).map("".join),
        WELL_FORMED,
    ),
)
def test_expression_text_fuzz(command, gid, text):
    # any expression text ends in a documented exit code without a traceback
    argv = [*command, "-g", gid, "--", text]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_environment_variable_sets_default_convention(capsys, monkeypatch):
    # leading-dash expressions go after the "--" separator
    monkeypatch.setenv("POLYHARM_CONVENTION", "paper")
    code, out, _ = run(capsys, "tension", "-g", "h2", "-r", "1", "--", "-log1m")
    assert code == 0
    assert out.strip().splitlines()[1] == "tau^1: 4"
    monkeypatch.setenv("POLYHARM_CONVENTION", "metric")
    code, out, _ = run(capsys, "tension", "-g", "h2", "-r", "1", "--", "-log1m")
    assert out.strip().splitlines()[1] == "tau^1: 1"
    # a mistyped value is a usage error, not a silent fallback to metric
    monkeypatch.setenv("POLYHARM_CONVENTION", "papr")
    for argv in (["classify", "-g", "h2", "log1m"], ["lemma-check", "-n", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == "error: unknown POLYHARM_CONVENTION 'papr'\n"


def test_generate_nil_f1_with_holomorphic_part(capsys):
    code, payload, _ = run_json(
        capsys,
        "generate",
        "nil.f1",
        "--params",
        "1,1",
        "--hol",
        "0,0,1",
    )
    assert code == 0
    assert payload["order"] == 1


@pytest.mark.parametrize("family_id", ["nil.f1", "sl2.f1"])
def test_generate_f1_with_cancelling_constants_exits_4(capsys, family_id):
    # hol and antihol share the constant term: 1 + (-1) leaves the zero function
    code, out, err = run(
        capsys, "generate", family_id, "--params", "0,0", "--hol", "1", "--antihol", "-1"
    )
    assert code == 4 and out == ""
    assert "needs a nonzero parameter" in err


def test_json_chains_reparse_to_identical_expressions(capsys):
    cases = [
        ("sol", "x^3*y - 2*E(-2)"),
        ("h2xr", "-t*log1m + (1+2i)/3*z*zb*t"),
        ("sl2", "x*t^2"),
    ]
    for gid, text in cases:
        code, payload, _ = run_json(capsys, "tension", "-g", gid, text, "-r", "2")
        assert code == 0
        atoms = by_id(gid).atoms
        for printed in payload["chain"]:
            again = parse(printed, atoms)
            assert str(again) == printed


def test_output_into_a_closed_pipe_exits_4_quietly():
    # the reader takes a few bytes and closes the pipe while about 180 kB of
    # the chain are still unwritten
    proc = subprocess.Popen(
        [sys.executable, "-m", "polyharm", "tension", "-g", "line", "-r", "6", "(1+t)^300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=subprocess_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 4
    assert "Traceback" not in err and "Exception ignored" not in err


# -- which libraries a command loads ---------------------------------------------

_REPORT_MODULES = """
import sys
from polyharm.cli import main
code = main(sys.argv[1:])
print(code, "numpy" in sys.modules, "sympy" in sys.modules)
"""

_SYMBOLIC_COMMANDS = {
    "tension": ["tension", "-g", "nil", "x^2*t", "-r", "2"],
    "classify": ["classify", "-g", "nil", "x^2"],
    "generate-family": ["generate", "sol.axis", "-n", "3"],
    "generate-ansatz": ["generate", "-g", "nil", "--ansatz", "x,y,x*y,t^2", "-r", "2"],
    "lemma-check": ["lemma-check", "-n", "2", "--trials", "2"],
}
_FLOAT_COMMANDS = {
    "oracle": ["oracle", "-g", "nil", "x^2*y", "--samples", "5"],
    "verify-paper": ["verify-paper", "--convention", "metric"],
}


def _modules_loaded_by(argv) -> tuple[str, ...]:
    """Exit code, numpy loaded, sympy loaded: one command in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _REPORT_MODULES, *argv], capture_output=True,
                          text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("name", _SYMBOLIC_COMMANDS)
def test_symbolic_commands_never_import_numpy_or_sympy(name):
    assert _modules_loaded_by(_SYMBOLIC_COMMANDS[name]) == ("0", "False", "False")


@pytest.mark.parametrize("name", _FLOAT_COMMANDS)
def test_oracle_commands_load_numpy(name):
    assert _modules_loaded_by(_FLOAT_COMMANDS[name]) == ("0", "True", "False")
