import math

import numpy as np
import pytest

from ptagcheck import consistency as cons
from ptagcheck import grammar as gr
from ptagcheck.expectation import build_M
from conftest import minimal_document, parse

M4_POW4_EXPECTED = np.array([
    [0, 0.1728, 0.1728, 0.1728, 0.0688],
    [0, 0.0432, 0.0432, 0.0432, 0.0172],
    [0, 0, 0, 0, 0.0002],
    [0, 0.0864, 0.0864, 0.0864, 0.0344],
    [0, 0, 0, 0, 0.0001],
])


def test_row_sum_test_grammar4(grammar4):
    below, top = cons.row_sum_test(build_M(grammar4).values)
    assert not below
    assert abs(top - 2.4) < 1e-12


def test_row_sum_test_grammar4_fourth_power(grammar4):
    m = build_M(grammar4).values
    m4 = np.linalg.matrix_power(m, 4)
    assert np.abs(m4 - M4_POW4_EXPECTED).max() < 1e-4
    below, top = cons.row_sum_test(m4)
    assert below
    assert top == pytest.approx(0.1728 * 3 + 0.0688, abs=1e-12)


def test_row_sum_test_zero_matrix():
    assert cons.row_sum_test(np.zeros((3, 3))) == (True, 0.0)


def test_check_grammar4_consistent(grammar4):
    report = cons.check_consistency(grammar4)
    assert report.verdict == cons.CONSISTENT
    assert report.squarings_used == 2
    trace = dict(report.max_row_sum_trace)
    assert trace[0] == pytest.approx(2.4, abs=1e-12)
    assert trace[1] == pytest.approx(1.6, abs=1e-12)
    assert trace[2] == pytest.approx(0.5872, abs=1e-12)
    assert trace[2] < 1.0
    assert report.rho_estimate == pytest.approx(0.5872 ** 0.25, rel=1e-9)
    assert report.rho_estimate < 1.0


def test_check_grammar2_inconsistent(grammar2):
    report = cons.check_consistency(grammar2)
    assert report.verdict == cons.INCONSISTENT
    assert report.rho_lower_bound > 1.0 + report.tolerance
    assert all(math.isfinite(v) for _, v in report.max_row_sum_trace)


def test_check_single_site_half():
    # one site total: the auxiliary tree's root feeds itself, M = [[0.5]]
    doc = minimal_document()
    doc["trees"].append({"id": "t2", "type": "auxiliary",
                         "root": {"label": "S", "site": "X", "children": [
                             {"anchor": "b"}, {"foot": "S"}]}})
    doc["phi"] = [
        {"site": "X", "tree": "t2", "prob": 0.5},
        {"site": "X", "tree": None, "prob": 0.5},
    ]
    g = parse(doc)
    m = build_M(g).values
    assert m.tolist() == [[0.5]]
    report = cons.check_consistency(g)
    assert report.verdict == cons.CONSISTENT
    assert report.squarings_used == 0
    assert report.rho_estimate == pytest.approx(0.5, abs=1e-12)
    rho, converged = cons.spectral_radius_estimate(m)
    assert converged and rho == pytest.approx(0.5, abs=1e-9)


def test_check_rejects_invalid_grammar():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["phi"] = [{"site": "R", "tree": None, "prob": 0.4}]
    with pytest.raises(cons.InvalidGrammarError) as info:
        cons.check_consistency(parse(doc))
    assert any(d.code == gr.IMPROPER_SITE for d in info.value.diagnostics)


def test_check_rejects_negative_max_squarings(grammar4):
    with pytest.raises(ValueError, match="max_squarings must be >= 0"):
        cons.check_consistency(grammar4, max_squarings=-1)


def test_boundary_rho_one_is_indeterminate():
    # one site feeding exactly one copy of itself: rho = 1
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["trees"].append({"id": "t2", "type": "auxiliary",
                         "root": {"label": "S", "site": "U", "children": [
                             {"anchor": "b"}, {"foot": "S"}]}})
    doc["phi"] = [
        {"site": "R", "tree": None, "prob": 1.0},
        {"site": "U", "tree": "t2", "prob": 1.0},
    ]
    report = cons.check_consistency(parse(doc), max_squarings=16)
    assert report.verdict == cons.INDETERMINATE
    assert report.squarings_used == 16
    assert report.rho_estimate == pytest.approx(1.0, abs=1e-9)


def test_supercritical_early_exit_bound(grammar2):
    report = cons.check_consistency(grammar2)
    # min-row-sum bound of M itself: rows sum to 2, 1.98, 1.96
    assert report.squarings_used == 0
    assert report.rho_lower_bound == pytest.approx(1.96, abs=1e-12)


def test_monotone_row_sum_information(grammar4):
    m = build_M(grammar4).values
    for k in range(2, 7):
        below, _ = cons.row_sum_test(np.linalg.matrix_power(m, 2 ** k))
        assert below


def test_spectral_radius_grammar4(grammar4):
    rho, converged = cons.spectral_radius_estimate(build_M(grammar4).values,
                                                   iterations=64, tol=1e-9)
    assert converged
    assert rho == pytest.approx(0.6, abs=1e-6)


def test_spectral_radius_grammar2(grammar2):
    rho, converged = cons.spectral_radius_estimate(build_M(grammar2).values,
                                                   iterations=64, tol=1e-9)
    assert converged
    assert rho == pytest.approx(1.97, abs=1e-6)


def test_spectral_radius_zero_matrix():
    rho, converged = cons.spectral_radius_estimate(np.zeros((4, 4)))
    assert (rho, converged) == (0.0, True)


def test_spectral_radius_nilpotent():
    m = np.array([[0.0, 5.0], [0.0, 0.0]])
    rho, converged = cons.spectral_radius_estimate(m)
    assert converged and rho == 0.0


def test_spectral_radius_matches_eigenvalues_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = rng.integers(1, 8)
        m = rng.random((n, n)) * rng.random()
        expected = max(abs(np.linalg.eigvals(m)))
        rho, _ = cons.spectral_radius_estimate(m, iterations=80, tol=1e-12)
        assert rho == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_scaled_power_matches_direct_squaring(grammar4):
    m = build_M(grammar4).values
    power = cons.ScaledPower.initial(m)
    for k in range(1, 7):
        power = power.squared()
        direct = np.linalg.matrix_power(m, 2 ** k)
        _, top = cons.row_sum_test(direct)
        reconstructed = math.exp(power.log_max_row_sum())
        assert reconstructed == pytest.approx(top, rel=1e-9)


def test_scaled_power_survives_huge_exponents(grammar2):
    # 1.97^(2^20) overflows doubles by ~1e5 orders of magnitude
    power = cons.ScaledPower.initial(build_M(grammar2).values)
    for _ in range(20):
        power = power.squared()
    assert np.isfinite(power.matrix).all()
    assert power.exponent == 2 ** 20
    gelfand = power.gelfand_value()
    assert gelfand == pytest.approx(1.97, abs=1e-4)


def test_scaled_power_survives_tiny_values(grammar4):
    power = cons.ScaledPower.initial(build_M(grammar4).values)
    for _ in range(20):
        power = power.squared()
    # true norm ~ 0.6^(2^20), far below double range
    assert power.log_max_row_sum() < math.log(1e-300)
    assert power.gelfand_value() == pytest.approx(0.6, abs=1e-4)


def test_report_is_deterministic(grammar4):
    a = cons.check_consistency(grammar4)
    b = cons.check_consistency(grammar4)
    assert a == b


def test_report_json_shape(grammar4):
    doc = cons.check_consistency(grammar4).as_dict()
    assert set(doc) == {"verdict", "squarings", "rho_estimate",
                        "rho_lower_bound", "trace"}
    assert doc["trace"][0] == [0, pytest.approx(2.4)]


def test_verdict_agrees_with_gelfand_estimate_random():
    # soundness: Consistent => rho below 1, Inconsistent => rho above 1
    from conftest import random_proper_grammar
    for seed in range(25):
        g = random_proper_grammar(seed)
        m = build_M(g).values
        if not m.size:
            continue
        report = cons.check_consistency(g, max_squarings=40)
        rho, _ = cons.spectral_radius_estimate(m, iterations=80, tol=1e-12)
        if report.verdict == cons.CONSISTENT:
            assert rho < 1.0 + 1e-9
        elif report.verdict == cons.INCONSISTENT:
            assert rho > 1.0 - 1e-9
