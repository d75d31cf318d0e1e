import math
import time

import pytest

from polyharm import oracle, verify
from polyharm.errors import UsageError
from polyharm.families import nil_biharmonic12
from polyharm.geometries import ProductGeometry, by_id, classify
from polyharm.oracle import OracleConfig, validate_chain
from polyharm.parser import parse
from polyharm.verify import (
    CheckResult,
    SuiteContext,
    _classification_check,
    biharmonic_product_remark_check,
    binomial_lemma_check,
    lemma_report,
    run_suite,
)


def test_full_suite_is_green_and_fast():
    start = time.monotonic()
    results = run_suite(SuiteContext())
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    ids = [r.check_id for r in results]
    assert len(ids) == len(set(ids))  # stable unique anchors
    assert any(r.status == "expected-mismatch" for r in results)


def test_suite_respects_r_max_override():
    results = run_suite(SuiteContext(r_max=1, oracle=False))
    by_id = {r.check_id: r for r in results}
    assert by_id["sol/tower-order"].status == "exceeds-bound"
    assert not by_id["sol/tower-order"].ok
    # every classification of a biharmonic family reaches bound 1
    biharmonic = ["sol/h2h3-biharmonic"] + [
        f"{label}[{convention}]"
        for label in (
            "h2xr/separable-biharmonic",
            "h2xr/log-times-affine",
            "s2pxr/separable-biharmonic",
            "s2pxr/log-times-affine",
            "h2/log-biharmonic",
            "s2p/log-biharmonic",
        )
        for convention in ("metric", "paper")
    ]
    # the biharmonic x biharmonic products classify under the bound too
    products = [f"product/biharmonic-times-biharmonic-{g}" for g in ("linexline", "h2xr")]
    for check_id in biharmonic + products:
        assert by_id[check_id].status == "exceeds-bound", check_id


def test_classification_check_statuses():
    g = by_id("line")
    t3 = parse("t^3", g.atoms)  # proper biharmonic
    assert _classification_check("c", [(g, t3, 2)], 8, "ok") == CheckResult("c", "pass", "ok")
    assert _classification_check("c", [(g, t3, 2)], 1).status == "exceeds-bound"
    wrong = _classification_check("c", [(g, t3, 2), (g, t3, 3)], 8)
    assert wrong.status == "fail" and wrong.detail.startswith("case 1:")
    # no case is a failure, never a vacuous pass
    assert _classification_check("c", [], 8).status == "fail"


def _sol_ansatz_statuses(monkeypatch, **references) -> dict:
    for name, value in references.items():
        monkeypatch.setattr(verify, name, value)
    return {r.check_id: r.status for r in verify._check_sol_ansatz(SuiteContext())}


def test_sol_ansatz_matrix_check_compares_primitive_rows_in_order(monkeypatch):
    def n2(rows):
        matrices = {**verify.ANSATZ_MATRIX_TEXT, 2: rows}
        return _sol_ansatz_statuses(monkeypatch, ANSATZ_MATRIX_TEXT=matrices)["sol/ansatz-matrix-n2"]

    assert verify.ANSATZ_MATRIX_TEXT[2] == [[2, 0, 1], [0, 1, 0]]
    assert n2([[2, 0, 1], [0, 1, 0]]) == "pass"
    assert n2([[-6, 0, -3], [0, 1, 0]]) == "pass"  # a row scaled by -3
    assert n2([[2, 0, 3], [0, 1, 0]]) == "fail"  # a wrong entry
    assert n2([[0, 1, 0], [2, 0, 1]]) == "fail"  # the rows swapped


def test_sol_ansatz_kernel_check_fails_on_a_wrong_coefficient(monkeypatch):
    texts = {**verify.AXIS_FAMILY_TEXT, 3: "2*x^3 - 5*x*E(-2)"}
    statuses = _sol_ansatz_statuses(monkeypatch, AXIS_FAMILY_TEXT=texts)
    assert statuses["sol/ansatz-kernel-n3"] == "fail"
    assert [k for k, status in statuses.items() if status != "pass"] == ["sol/ansatz-kernel-n3"]


def test_suite_metric_only_has_no_paper_checks():
    results = run_suite(SuiteContext(conventions=("metric",), oracle=False))
    assert all("paper" not in r.check_id for r in results)
    assert all(r.ok for r in results)


def test_lemma_report_shape():
    results = lemma_report(3, 10, 2)
    assert len(results) == 4
    assert all(isinstance(r, CheckResult) and r.ok for r in results)


def test_binomial_lemma_check_names_geometry():
    g = by_id("product:linexline")
    result = binomial_lemma_check(g, 2, 5, 1)
    assert result.check_id == "product/binomial-lemma-linexline"
    assert result.ok


def test_binomial_lemma_check_needs_a_trial():
    # zero trials would report a vacuous pass
    g = by_id("product:linexline")
    with pytest.raises(UsageError, match="at least one trial"):
        binomial_lemma_check(g, 2, 0, 1)


class _DoubledTension(ProductGeometry):
    """A product chart whose tau is twice the true operator: a test double for
    a wrong product rule, while its factors keep their true tau."""

    def tension(self, f):
        return 2 * super().tension(f)


@pytest.mark.parametrize("geometry_id", ["product:linexline", "h2xr"])
def test_product_checks_fail_on_a_wrong_product_operator(geometry_id):
    # neither check can pass vacuously: a doubled tau is caught at the first trial
    true = by_id(geometry_id)
    g = _DoubledTension(true.first, true.second, true.name)
    binomial = binomial_lemma_check(g, 2, 5, 1, allow_log=g.atoms.log_kind is not None)
    assert binomial.status == "fail"
    assert binomial.detail.startswith("counterexample at trial 0, n=1: f1=")
    remark = biharmonic_product_remark_check(g, 5, 1)
    assert (remark.status, remark.detail) == ("fail", "counterexample at trial 0")


def test_convention_sentinel_fails_on_a_nan_point(monkeypatch):
    # one NaN oracle value among the sentinel's points fails the check
    exact = oracle._fd_tensions

    def nan_at_second_point(geometry, f, points, config):
        values = exact(geometry, f, points, config)
        values[1] = math.nan
        return values

    monkeypatch.setattr(oracle, "_fd_tensions", nan_at_second_point)
    results = run_suite(SuiteContext(conventions=("paper",)))
    sentinel = [r for r in results if r.check_id == "oracle/conformal-convention-sentinel"]
    assert [r.status for r in sentinel] == ["fail"]


def test_validate_chain_attaches_oracle_residuals():
    g = by_id("nil")
    report = classify(g, nil_biharmonic12([1] * 12))
    residuals = validate_chain(g, report.chain, OracleConfig(samples=15))
    assert len(residuals) == len(report.chain) - 1
    assert all(r.within_tolerance for r in residuals)
    assert [r.points for r in residuals] == [15] * len(residuals)
