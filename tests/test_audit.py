import random
from fractions import Fraction

import numpy as np
import pytest

from paramech.audit import (
    STATUS_DISCREPANCY,
    STATUS_FAIL,
    STATUS_PASS,
    verify_all,
)
from paramech import audit, structures
from paramech.lagrangian import two_form_matrix
from paramech.structures import PRIMAL_KINDS, build_structure, verify_relations


def test_report_covers_the_identity_list():
    report = verify_all(2)
    assert len(report.records) >= 20
    names = [r.name for r in report.records]
    assert any("F^2" in n for n in names)
    assert any("F*" in n for n in names)
    assert any("metric compatibility" in n for n in names)
    assert any("Liouville route" in n for n in names)
    assert any("Euler-Lagrange" in n for n in names)
    # One row per structure relation, named and ordered as verify_relations.
    relations = [r.name for r in report.records if r.subject == "structure relations"]
    assert relations == list(verify_relations(2))


def test_no_failures_and_one_documented_discrepancy():
    report = verify_all(2)
    assert report.n_fail == 0
    assert report.n_discrepancy == 1
    flagged = [r for r in report.records if r.status == STATUS_DISCREPANCY]
    assert len(flagged) == 1
    assert "F" in flagged[0].name
    assert flagged[0].max_abs_error >= 0.1


def test_rerun_is_bit_identical():
    assert verify_all(1).render() == verify_all(1).render()


def test_exact_records_render_exact():
    report = verify_all(1)
    exact = [r for r in report.records if r.max_abs_error is None]
    assert exact
    assert all(r.error_text == "exact" for r in exact)
    assert all(r.status in (STATUS_PASS, STATUS_FAIL, STATUS_DISCREPANCY) for r in report.records)


def test_a_symmetric_fundamental_form_is_a_failing_row(monkeypatch):
    # With the identity for a metric, G^T and H^T are symmetric: the audit
    # reports the failed identity instead of raising.
    monkeypatch.setattr(structures, "neutral_metric", lambda n: np.eye(4 * n, dtype=np.int64))
    rows = {r.name: r.status for r in verify_all(1).records}
    assert rows["fundamental two-forms antisymmetric and nondegenerate"] == STATUS_FAIL


def test_an_f_discrepancy_that_does_not_show_is_a_failing_row(monkeypatch):
    # Printed residuals as small as the derived ones: the documented F
    # discrepancy is missing, so its row fails.
    plain = audit.el_residuals

    def el_residuals(op, L, traj):
        residuals = plain(op, L, traj)
        if residuals["printed"] is residuals["derived"]:
            return residuals
        return {**residuals, "printed": residuals["derived"].copy()}

    monkeypatch.setattr(audit, "el_residuals", el_residuals)
    report = verify_all(1)
    rows = {r.name: r.status for r in report.records}
    assert rows["boxed Euler-Lagrange system vs derived flow, F"] == STATUS_FAIL
    assert report.n_discrepancy == 0 and report.n_fail == 1


def test_n_max_validation():
    with pytest.raises(ValueError):
        verify_all(0)


def test_hessian_commutator_is_the_dense_product():
    rng = random.Random(11)
    for kind in PRIMAL_KINDS:
        for n in (1, 2, 3):
            op = build_structure(kind, n)
            for _ in range(3):
                hess = np.empty((op.dim, op.dim), dtype=object)
                for a in range(op.dim):
                    for b in range(a, op.dim):
                        hess[a, b] = hess[b, a] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                gathered = two_form_matrix(op, hess)
                assert all(isinstance(entry, Fraction) for entry in gathered.flat)
                assert np.array_equal(gathered, op.matrix.T @ hess - hess @ op.matrix)
