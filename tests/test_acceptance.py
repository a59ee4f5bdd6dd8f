"""Acceptance suite: every gate runs at full stated scale and tolerance.

Each test prints one ``criterion NN: PASS/FAIL`` line (visible with
``pytest -s``) before asserting, so a full run doubles as a checklist.
The heavy shared experiments (toy protocol over 100 datasets, the
20-seed augmentation sweep) run once via module-scoped fixtures.

Criterion 05 exercises the per-variable information addition rule as an
exhaustive brute force.  Genuine counterexamples exist (parity-style
predictors carry synergy that single-variable terms cannot see), so this
criterion fails; see the repository notes for the analysis.  The test is
kept faithful rather than weakened.
"""

import time

import numpy as np
import pytest
import scipy.stats

from gvlab.augment import LABEL_INTERVALS, AugmentDistribution, draw_params
from gvlab.cli import main as cli_main
from gvlab.experiments import (GridProtocol, ToyProtocol, addition_rule_sweep,
                               augment_sweep_run, check_gap_bound, check_max_prob_bound,
                               check_optimal_outputs, check_strict_invariance,
                               check_training_error, derive_seed, toy_run)
from gvlab.models import LinearModel, loss_and_gradients

SEED = 20240501
JOBS = 2


def report(number: int, ok: bool, detail: str, started: float) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {status} ({detail}) [{time.time() - started:.1f}s]")
    return ok


@pytest.fixture(scope="module")
def toy_results():
    """The influence result and the balance rows, from one training per dataset."""
    return toy_run(SEED, 100, ToyProtocol(), jobs=JOBS, balance=True)


@pytest.fixture(scope="module")
def augment_alpha_rows():
    return augment_sweep_run(SEED, 20, (0.0, 1.0), ("uniform",), GridProtocol(), jobs=JOBS)


@pytest.fixture(scope="module")
def augment_law_rows():
    return augment_sweep_run(SEED, 20, (0.0,), ("periphery_m0", "center_m1"),
                             GridProtocol(), jobs=JOBS)


def run_check(number: int, check, *args) -> None:
    """Run one ``experiments`` theory sweep and report its verdict."""
    started = time.time()
    result = check(*args)
    assert report(number, result.passed,
                  f"{result.detail}; max deviation {result.max_deviation:.2e}", started)


def test_criterion_01_max_probability_lower_bound_sweep():
    run_check(1, check_max_prob_bound, np.random.default_rng(derive_seed(SEED, 1)))


def test_criterion_02_optimal_outputs_match_numeric_minimizer():
    run_check(2, check_optimal_outputs, np.random.default_rng(derive_seed(SEED, 2)), 200)


def test_criterion_03_training_error_equals_argmax_error_exactly():
    run_check(3, check_training_error, np.random.default_rng(derive_seed(SEED, 3)), 500)


def test_criterion_04_independence_implies_strict_invariance():
    run_check(4, check_strict_invariance, np.random.default_rng(derive_seed(SEED, 4)), 100)


def test_criterion_05_addition_rule_inequality_brute_force():
    started = time.time()
    sweep = addition_rule_sweep(SEED, laws_per_case=4)
    ok = sweep.violations == 0
    detail = (f"{sweep.cases} cases, {sweep.violations} violations, "
              f"worst shortfall {sweep.worst_violation:.4f} nats")
    if not ok:
        detail += f"; counterexample: {sweep.worst_case}"
    assert report(5, ok, detail, started)


def test_criterion_06_gap_bound_closed_form_and_monotonicity():
    run_check(6, check_gap_bound)


def test_criterion_07_toy_influence_rank_agreement(toy_results):
    started = time.time()
    influence_result = toy_results[0]
    mean = influence_result.mean_spearman
    ok = mean >= 0.6
    assert report(7, ok, f"mean Spearman over 100 datasets {mean:.4f} (>= 0.6); "
                         f"mean MI estimation gap {influence_result.mean_mi_gap:.4f} nats",
                  started)


def test_criterion_08_balance_shrinks_weights_and_helps_accuracy(toy_results):
    started = time.time()
    balance_rows = toy_results[1]
    details = []
    ok = True
    for rank in (1, 2, 3):
        rows = [r for r in balance_rows if r.rank_est == rank]
        w_before = float(np.mean([r.w_before for r in rows]))
        w_after = float(np.mean([r.w_after for r in rows]))
        acc_before = float(np.mean([r.acc_before for r in rows]))
        acc_after = float(np.mean([r.acc_after for r in rows]))
        ok = ok and w_after <= 0.2 * w_before and acc_after >= acc_before
        details.append(f"rank{rank}: |w| ratio {w_after / w_before:.3f}, "
                       f"acc {acc_before:.4f}->{acc_after:.4f}")
    assert report(8, ok, "; ".join(details), started)


def test_criterion_09_analytic_gradients_match_finite_differences():
    started = time.time()
    rng = np.random.default_rng(derive_seed(SEED, 9))
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(2, 10))
        head = "sigmoid" if k == 2 else "softmax"
        rows = 1 if head == "sigmoid" else k
        w = rng.normal(0, 1, (rows, d))
        b = rng.normal(0, 1, rows)
        x = rng.normal(0, 1, (int(rng.integers(3, 12)), d))
        y = rng.integers(0, k, x.shape[0])
        _, gw, gb = loss_and_gradients(LinearModel(w, b, head), x, y)
        numeric_w = np.empty_like(w)
        for idx in np.ndindex(*w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += step
            wm[idx] -= step
            numeric_w[idx] = (loss_and_gradients(LinearModel(wp, b, head), x, y)[0]
                              - loss_and_gradients(LinearModel(wm, b, head), x, y)[0]) / (2 * step)
        numeric_b = np.empty_like(b)
        for i in range(rows):
            bp, bm = b.copy(), b.copy()
            bp[i] += step
            bm[i] -= step
            numeric_b[i] = (loss_and_gradients(LinearModel(w, bp, head), x, y)[0]
                            - loss_and_gradients(LinearModel(w, bm, head), x, y)[0]) / (2 * step)
        analytic = np.concatenate([gw.ravel(), gb])
        numeric = np.concatenate([numeric_w.ravel(), numeric_b])
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst = max(worst, float(rel))
    ok = worst <= 1e-5
    assert report(9, ok, f"50 model/batch pairs, worst relative error {worst:.2e}", started)


def _cdf_m0(x: float) -> float:
    return 2 * x - 2 * x * x if x <= 0.5 else 1.0 - (2 * (1 - x) - 2 * (1 - x) ** 2)


def _cdf_m1(x: float) -> float:
    return 2 * x * x if x <= 0.5 else 1.0 - 2 * (1 - x) ** 2


def test_criterion_10_augmentation_parameter_laws():
    started = time.time()
    rng = np.random.default_rng(derive_seed(SEED, 10))
    draws = 100_000
    bins = 20
    threshold = scipy.stats.chi2.ppf(0.999, bins - 1)
    stats = {}
    for law, cdf in (("periphery_m0", _cdf_m0), ("center_m1", _cdf_m1)):
        params, _ = draw_params(AugmentDistribution(position_law=law),
                                np.zeros(draws, dtype=int), rng)
        observed, edges = np.histogram(params[:, 2], bins=bins, range=(0.0, 1.0))
        expected = draws * np.diff([cdf(e) for e in edges])
        stats[law] = float(((observed - expected) ** 2 / expected).sum())
    gof_ok = all(stat < threshold for stat in stats.values())

    labels = np.repeat(np.arange(10), 2000)
    params, _ = draw_params(AugmentDistribution(alpha=1.0), labels, rng)
    lo, hi = np.array([LABEL_INTERVALS[k] for k in range(10)])[labels].transpose(2, 0, 1)
    containment_ok = bool(np.all((lo <= params[:, :2]) & (params[:, :2] <= hi)))

    _, dependent = draw_params(AugmentDistribution(alpha=0.3), np.full(draws, 4), rng)
    fraction = float(dependent.mean())
    mixture_ok = abs(fraction - 0.3) <= 0.01

    ok = gof_ok and containment_ok and mixture_ok
    assert report(10, ok,
                  f"chi2 m0={stats['periphery_m0']:.1f} m1={stats['center_m1']:.1f} "
                  f"(<{threshold:.1f}), containment={containment_ok}, "
                  f"mixture fraction {fraction:.4f}", started)


def test_criterion_11_augmentation_trends(augment_alpha_rows, augment_law_rows):
    started = time.time()
    ratio0 = float(np.mean([r.changing_ratio for r in augment_alpha_rows if r.alpha == 0.0]))
    ratio1 = float(np.mean([r.changing_ratio for r in augment_alpha_rows if r.alpha == 1.0]))
    err_periphery = float(np.mean([r.test_error for r in augment_law_rows
                                   if r.law == "periphery_m0"]))
    err_center = float(np.mean([r.test_error for r in augment_law_rows
                                if r.law == "center_m1"]))
    ok = (ratio1 - ratio0 >= 0.02) and (err_periphery <= err_center)
    assert report(11, ok,
                  f"changing ratio {ratio0:.4f}->{ratio1:.4f} (gap {ratio1 - ratio0:+.4f}); "
                  f"test error periphery {err_periphery:.4f} vs center {err_center:.4f}",
                  started)


def test_criterion_12_cli_reruns_are_byte_identical(tmp_path):
    started = time.time()
    commands = {
        "bounds": ["bounds", "--T", "2", "--K", "2", "--n-grid", "500,1000",
                   "--gamma-grid", "0.0,0.1", "--delta", "0.05"],
        "theory-check": ["theory-check", "--seed", "7", "--tables", "30"],
        "toy-influence": ["toy-influence", "--seed", "7", "--datasets", "1",
                          "--per-class", "600", "--epochs", "6"],
        "toy-balance": ["toy-balance", "--seed", "7", "--datasets", "1",
                        "--per-class", "600", "--epochs", "6"],
        "augment-sweep": ["augment-sweep", "--seed", "7", "--datasets", "1",
                          "--alphas", "0.0,1.0", "--laws", "uniform",
                          "--epochs", "5", "--repeats", "5"],
    }
    csv_names = {
        "bounds": "bounds.csv",
        "theory-check": "theory_report.csv",
        "toy-influence": "influence.csv",
        "toy-balance": "balance.csv",
        "augment-sweep": "augment.csv",
    }
    ok = True
    mismatches = []
    for name, argv in commands.items():
        outputs = []
        for run_index in (0, 1):
            out = tmp_path / f"{name}-{run_index}"
            cli_main([*argv, "--out", str(out), "--plot", "false"])
            outputs.append((out / csv_names[name]).read_bytes())
        if outputs[0] != outputs[1]:
            ok = False
            mismatches.append(name)
    detail = "all 5 subcommands byte-identical" if ok else f"mismatch in {mismatches}"
    assert report(12, ok, detail, started)
