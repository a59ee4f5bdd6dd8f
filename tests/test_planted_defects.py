"""Planted defects: each acceptance gate turns to FAIL on a small, plausible
fault in the closed form it checks, so a refactor that breaks a gate cannot
pass silently.

| criterion | gate | planted defect |
|---|---|---|
| 01 | ``check_max_prob_bound`` | the entropy bound shifted by 0.01 (``--corrupt max-prob-bound``) |
| 02 | ``check_optimal_outputs`` | the oracle's vectors moved by 0.002 (``--corrupt optimal-outputs-closed-form``) |
| 06 | ``check_gap_bound`` | the closed form without its ``ln 2``; a closed form that rises in ``n`` |

Criteria 01 and 02 are covered by the ``corrupt`` hooks in
``tests/test_experiments.py`` and ``tests/test_cli.py``; criterion 05 fails
by design.
"""

import numpy as np
import pytest

from gvlab import theory
from gvlab.experiments import check_gap_bound


def without_ln2(tk, n, log_inverse_delta):
    return np.sqrt(2.0 * (tk + log_inverse_delta) / n)


def rising_in_n(tk, n, log_inverse_delta, closed_form=theory._gap):
    """The closed form with n = 800 and n = 1600 swapped: off the 5^4 grid's
    n axis every value, the spot values included, is the true one."""
    swapped = np.where(n == 800, 1600, np.where(n == 1600, 800, n))
    return closed_form(tk, swapped, log_inverse_delta)


def test_criterion_06_passes_on_the_true_closed_form():
    assert check_gap_bound().passed


def test_criterion_06_fails_without_ln2(monkeypatch):
    monkeypatch.setattr(theory, "_gap", without_ln2)
    result = check_gap_bound()
    assert not result.passed and result.max_deviation > 1e-6


def test_criterion_06_fails_when_not_monotone_in_n(monkeypatch):
    """The spot values hold, so only the monotonicity half of the gate can fail."""
    monkeypatch.setattr(theory, "_gap", rising_in_n)
    result = check_gap_bound()
    assert result.max_deviation == 0.0
    assert not result.passed
