import json

import pytest

from polyharm.cli import main
from polyharm.geometries import by_id
from polyharm.parser import parse


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


def test_generate_unknown_family(capsys):
    code, _, err = run(capsys, "generate", "sol.unknown")
    assert code == 4
    assert "unknown family" in err


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


def test_oracle_nan_step_is_usage_error(capsys):
    code, _, err = run(capsys, "oracle", "-g", "line", "t^2", "--step", "nan")
    assert code == 4
    assert "out of range" in err


def test_oracle_zero_samples_is_usage_error(capsys):
    code, _, err = run(capsys, "oracle", "-g", "line", "t^2", "--samples", "0")
    assert code == 4
    assert "at least one sample" in err


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
    tower = [c for c in payload["checks"] if c["id"] == "sol/tower-order"]
    assert tower and tower[0]["status"] == "exceeds-bound"


def test_verify_paper_is_deterministic(capsys):
    _, first, _ = run_json(capsys, "verify-paper", "--seed", "5", "--skip-oracle")
    _, second, _ = run_json(capsys, "verify-paper", "--seed", "5", "--skip-oracle")
    assert first == second


# -- exit codes and report round trips ------------------------------------------------


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


def test_environment_variable_sets_default_convention(capsys, monkeypatch):
    # leading-dash expressions go after the "--" separator
    monkeypatch.setenv("POLYHARM_CONVENTION", "paper")
    code, out, _ = run(capsys, "tension", "-g", "h2", "-r", "1", "--", "-log1m")
    assert code == 0
    assert out.strip().splitlines()[1] == "tau^1: 4"
    monkeypatch.setenv("POLYHARM_CONVENTION", "metric")
    code, out, _ = run(capsys, "tension", "-g", "h2", "-r", "1", "--", "-log1m")
    assert out.strip().splitlines()[1] == "tau^1: 1"


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
