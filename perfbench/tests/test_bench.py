"""Tests of the benchmark's own generators, checks and tracer.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys

import pytest

import polyharm as ph
import run as bench
import workloads
from tracer import Tracer

ROUNDS = 2


def _inputs(name: str, seed: int) -> bytes:
    rng = random.Random(seed)
    rounds = [workloads.WORKLOADS[name].make_round(rng, i) for i in range(ROUNDS)]
    return repr(rounds).encode()


def _texts(query):
    if isinstance(query, workloads.AnsatzQuery):
        return query.basis
    return (query.text,)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_inputs(name):
    assert _inputs(name, 7) != _inputs(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_generated_expression_parses(name):
    geometries = workloads.build_geometries(name)
    rng = random.Random(11)
    for i in range(ROUNDS):
        for query in workloads.WORKLOADS[name].make_round(rng, i):
            atoms = geometries[query.geometry].atoms
            for text in _texts(query):
                assert not ph.parse(text, atoms).is_zero(), text


def test_every_family_draw_is_admissible():
    rng = random.Random(5)
    for family_id in sorted(workloads.FAMILY_PARAMS):
        for _ in range(20):
            params, query = workloads.family_draw(rng, family_id)
            descriptor = ph.FAMILIES[family_id]
            assert descriptor.admissible(params)
            assert query.expected_order == descriptor.claimed_order(params)


@pytest.mark.parametrize("name, max_terms", [
    ("classify", workloads.CLASSIFY_MAX_TERMS), ("oracle", workloads.ORACLE_MAX_TERMS)])
def test_rounds_pair_each_geometry_with_each_term_count(name, max_terms):
    rng = random.Random(4)
    geometries = workloads.build_geometries(name)
    seen = set()
    for index in range(max_terms):
        for q in workloads.WORKLOADS[name].make_round(rng, index):
            if getattr(q, "family", None) is None:
                seen.add((q.geometry, len(ph.parse(q.text, geometries[q.geometry].atoms).terms)))
    assert seen == {(g, n) for g in geometries for n in range(1, max_terms + 1)}


def test_sol_axis_basis_matches_the_program():
    g = ph.sol()
    for axis in "xy":
        texts = workloads.sol_axis_basis(5, axis)
        assert [ph.parse(t, g.atoms) for t in texts] == ph.families.sol_axis_basis(5, axis, g)


def test_float_rank_kernel_dimension_of_nil_degree_8_biharmonic():
    g = ph.nil()
    basis = [ph.parse(t, g.atoms) for t in workloads.monomial_basis("nil", 8)]
    system = ph.AnsatzSystem.build(g, basis, order=2)
    assert (system.order_matrix.rows, system.order_matrix.cols) == (114, 165)
    assert workloads.float_kernel_dimension(system.order_matrix) == 81


# -- the checks fire -------------------------------------------------------------


def _run_round(name, queries):
    r = bench.Run(workloads.WORKLOADS[name], workloads.build_geometries(name), seed=0)
    r.run_round(queries)
    return r


def test_classify_checks_pass_on_a_round_and_fire_on_a_wrong_order():
    queries = workloads.classify_round(random.Random(3), 0)
    r = _run_round("classify", queries)
    assert (r.attempted, r.failed) == (len(queries), 0)
    family = next(q for q in queries if q.family is not None)
    wrong = dataclasses.replace(family, expected_order=family.expected_order + 1)
    r = _run_round("classify", [family, wrong, family])
    assert (r.attempted, r.failed) == (3, 1)
    assert "claimed" in r.errors[0]


def test_classify_check_fires_on_a_chain_entry_that_does_not_reparse():
    geometries = workloads.build_geometries("classify")
    query = workloads.ClassifyQuery("nil", "x^2*t", None, None)
    report, lines = workloads.run_classify(geometries, query)
    lines[1] = lines[1] + " + 1"
    assert workloads.check_classify(geometries, query, (report, lines))


def test_ansatz_check_fires_on_a_wrong_kernel_dimension():
    geometries = workloads.build_geometries("ansatz")
    query = workloads.AnsatzQuery("nil", tuple(workloads.monomial_basis("nil", 3)), 1)
    r = _run_round("ansatz", [query])
    assert (r.attempted, r.failed) == (1, 0)
    system, lines = workloads.run_ansatz(geometries, query)
    assert workloads.check_ansatz(geometries, query, (system, lines[:-1]))
    assert workloads.check_ansatz(geometries, query, (system, lines[:-1] + ["x^2"]))


def test_ansatz_float_rank_agrees_on_the_longest_sol_axis_basis():
    geometries = workloads.build_geometries("ansatz")
    n = workloads.SOL_AXIS_STRATA[-1][1]
    query = workloads.AnsatzQuery("sol", tuple(workloads.sol_axis_basis(n, "y")), 1)
    r = _run_round("ansatz", [query])
    assert (r.attempted, r.failed) == (1, 0), r.errors


def test_oracle_check_fires_on_missing_points_and_bad_residuals():
    geometries = workloads.build_geometries("oracle")
    query = workloads.OracleQuery("nil", "x*y*t + y^3", 4)
    report = workloads.run_oracle(geometries, query)
    assert workloads.check_oracle(geometries, query, report) == []
    for change in ({"points": 99}, {"max_rel": float("nan")}, {"max_rel": 1.0}):
        bad = dataclasses.replace(report, **change)
        assert workloads.check_oracle(geometries, query, bad)


def test_an_operation_that_raises_is_counted_and_the_run_goes_on():
    good = workloads.ClassifyQuery("nil", "x*t", None, None)
    bad = workloads.ClassifyQuery("nil", "x*(", None, None)
    r = _run_round("classify", [good, bad, good])
    assert (r.attempted, r.failed, len(r.latencies)) == (3, 1, 2)


def test_run_stops_at_the_first_round_boundary_after_the_budget():
    r = bench.Run(workloads.WORKLOADS["classify"], workloads.build_geometries("classify"), seed=1)
    r.run(seconds=1e-9)
    assert r.attempted == len(workloads.classify_round(random.Random(0), 0)) and r.failed == 0


def test_tail_is_the_value_with_ten_samples_beyond_it():
    assert bench.tail([float(i) for i in range(100)]) == (89.0, 90.0)


# -- tracing ----------------------------------------------------------------------


def test_tracer_restores_every_entry_point():
    before = {
        (m.__name__, k): v for m in _modules() for k, v in vars(m).items() if callable(v)
    }
    before_attrs = [
        (cls, dict(vars(cls)))
        for cls in (ph.Expr, ph.GaussianRational, ph.AnsatzSystem, *_geometry_classes())
    ]
    tracer = Tracer()
    tracer.install()
    assert ph.nullspace is not before[("polyharm", "nullspace")]
    assert ph.families.nullspace is ph.nullspace
    tracer.uninstall()
    after = {
        (m.__name__, k): v for m in _modules() for k, v in vars(m).items() if callable(v)
    }
    assert after == before
    for cls, attrs in before_attrs:
        assert dict(vars(cls)) == attrs
    assert tracer.missing == []


def _modules():
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("polyharm")]


def _geometry_classes():
    return [c for c in vars(ph.geometries).values() if isinstance(c, type)]


def _traced(name, query):
    geometries = workloads.build_geometries(name)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.root(workloads.WORKLOADS[name].run_op, geometries, query)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_layers_match_the_workload_design():
    cls = _traced("classify", workloads.ClassifyQuery("sol", "x^2*y*E(1) + t^3", None, None))
    assert cls.calls["geometries.tension"] == 8 and cls.calls["parser.parse"] == 1
    assert cls.calls["linalg.nullspace"] == 0 and cls.calls["oracle.fd_tension"] == 0
    assert cls.counts["rationals.mul_calls"] > 0

    ans = _traced("ansatz", workloads.AnsatzQuery("nil", tuple(workloads.monomial_basis("nil", 3)), 1))
    assert ans.calls["linalg.nullspace"] == 1 and ans.calls["families.build"] == 1
    assert ans.counts["linalg.entries"] > ans.counts["linalg.nonzero"] > 0
    assert ans.counts["families.kernel_dim"] > 0
    layer_ns = {k: v for k, v in ans.self_ns.items() if k != "op"}
    assert max(layer_ns, key=layer_ns.get) == "linalg.nullspace"

    ora = _traced("oracle", workloads.OracleQuery("nil", "x*y*t", 2))
    assert ora.calls["oracle.fd_tension"] == workloads.ORACLE_CONFIG.samples
    assert ora.calls["oracle.metric"] > 0 and ora.calls["algebra.evaluate"] > 0
    assert ora.calls["linalg.nullspace"] == 0


# -- the command ------------------------------------------------------------------


def test_command_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_one_result_line(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "2",
         "--seconds", "0.3", "--trace", trace],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = "per_layer" if trace == "1" else "end_to_end"
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())[expected]
    assert {m["name"] for m in spec} == set(result["metrics"])
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
