"""Acceptance battery: one test per cross-verification criterion.

Each test runs the corresponding check from kfpq.acceptance, prints its
one-line verdict (visible under pytest -v -s or in failure output), and
asserts the verdict together with the wall-clock budget.  The final test
checks that the reporting pipeline itself is reproducible byte for byte.
"""

import numpy as np
import pytest

from kfpq import acceptance
from kfpq.cli import main
from kfpq.positivity import positivity_report

# cheap, fully deterministic subset used for the byte-reproducibility check
FAST_CRITERIA = (1, 2, 3, 4, 6, 8, 9)


def _check(number: int) -> None:
    result = acceptance.CRITERIA[number]()
    status = "PASS" if result.passed else "FAIL"
    line = "criterion %02d %s %s: %s" % (result.number, status,
                                         result.name, result.details)
    print(line)
    assert result.passed, line
    assert result.elapsed < result.budget, line


def test_criterion_01_algebra_closure():
    _check(1)


def _series_one_by_one(m):
    """Criterion 1's reference series for one matrix, term by term."""
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, 80):
        term = term @ m / k
        out = out + term
        if np.max(np.abs(term)) < 1e-20:
            break
    return out


def test_series_of_stack_matches_matrix_by_matrix():
    # scales from 1e-3 to 8 stop the matrices at different terms, and the
    # largest runs to the 80-term cap; batching moves no bit
    rng = np.random.RandomState(4)
    stack = np.stack([scale * (rng.randn(2, 2) + 1j * rng.randn(2, 2))
                      for scale in (1e-3, 0.1, 0.8, 2.0, 8.0) * 4])
    expected = np.stack([_series_one_by_one(m) for m in stack])
    assert np.array_equal(acceptance._matrix_exp_series(stack), expected)


def test_criterion_02_basis_identities():
    _check(2)


def test_criterion_03_flow_closed_forms():
    _check(3)


def test_criterion_04_positivity_threshold():
    _check(4)


def test_criterion_04_reads_delta_zero_off_the_sweep_maps(monkeypatch):
    # one form map per (nu, alpha, sign, t), and the interior eigenvalue at
    # delta = 0 read off each is positivity_report's, bit for bit
    formed, at_zero = [], []

    def counting(t, params, sign, original=acceptance._form_difference):
        formed.append((t, params, sign))
        return original(t, params, sign)

    def recording(t, delta, w, original=acceptance._report):
        rep = original(t, delta, w)
        if delta == 0.0:
            at_zero.append(rep.min_eigenvalue)
        return rep

    monkeypatch.setattr(acceptance, "_form_difference", counting)
    monkeypatch.setattr(acceptance, "_report", recording)
    assert acceptance.CRITERIA[4]().passed
    assert len(formed) == len(at_zero) == 160
    assert at_zero == [positivity_report(t, 0.0, params, sign).min_eigenvalue
                       for t, params, sign in formed]


def test_criterion_05_exact_semigroup_norm():
    _check(5)


def test_criterion_06_resolvent_log_bound():
    _check(6)


def test_criterion_07_optimality_witness():
    _check(7)


def test_criterion_08_holomorphic_quotient():
    _check(8)


def test_criterion_09_degenerate_fibers():
    _check(9)


@pytest.mark.slow
def test_criterion_10_discretization_probes():
    _check(10)


def test_criterion_11_byte_reproducible_report(tmp_path, capsys):
    crit = ",".join(str(n) for n in FAST_CRITERIA)
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    rc1 = main(["verify-all", "--criteria", crit, "--out", str(first)])
    rc2 = main(["verify-all", "--criteria", crit, "--out", str(second)])
    capsys.readouterr()
    print("criterion 11 %s byte reproducibility: rc=(%d,%d)"
          % ("PASS" if rc1 == rc2 == 0 else "FAIL", rc1, rc2))
    assert rc1 == 0 and rc2 == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().endswith(
        "passed %d of %d criteria\n"
        % (len(FAST_CRITERIA), len(FAST_CRITERIA)))
