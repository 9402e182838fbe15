"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 1-7 run the check registry ``ellreg.checks`` at its ``FULL`` scale
(the tolerances live there); this module holds only the runtime budgets, the
printed lines, the assertions and criterion 8, CLI determinism.  Run with
`pytest -v -s tests/test_acceptance.py` to see the per-criterion lines;
`ellreg selftest` runs the same registry at ``REDUCED`` scale.
"""

from __future__ import annotations

import json
import time

from ellreg import checks, cli


def _report(k: int, ok: bool, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} — {detail} [{elapsed:.2f}s]")


def _gate(k: int, budget: float, detail: str) -> None:
    """Run criterion k at FULL scale and print ``detail``, formatted with the
    FULL table entries and the record values by name."""
    t0 = time.perf_counter()
    records = checks.CRITERIA[k](checks.FULL, None)
    elapsed = time.perf_counter() - t0
    failed = [rec["name"] for rec in records if not rec["pass"]]
    values = {rec["name"]: float(rec["value"]) if isinstance(rec["value"], str) else rec["value"]
              for rec in records}
    _report(k, not failed and elapsed < budget, detail.format(**checks.FULL, **values),
            elapsed)
    assert not failed, failed
    assert elapsed < budget


def test_acceptance_1_constants_reproduction():
    _gate(1, 1.0, "r0={constants_r0:.6e}, eps~0 matches min of branches, "
                  "chain slacks all nonnegative")


def test_acceptance_2_mollifier_suite():
    _gate(2, 10.0, "mass exact, sup-norm law on {mollifier_fields} fields, linear fixed point, "
                   "rate dev={mollifier_rate:.4f} <= 0.3162+slack")


def test_acceptance_3_solver_suite():
    _gate(3, 120.0, "quadratic 1e-8, two-grid order {solver_two_grid_order:.2f} >= 1.8, "
                    "eps=0 match {solver_nonlinear_match:.2e} <= 1e-8, "
                    "max principle x{max_principle_draws}, perturbed solve converged")


def test_acceptance_4_campanato_suite():
    _gate(4, 300.0, "idempotence 1e-9, cubic slope {campanato_cubic_decay:.3f} >= 2.8, "
                    "perturbed slope {campanato_perturbed_decay:.3f} >= 2.3, telescoping exact, "
                    "zero-source reduction, cubic certificate")


def test_acceptance_5_pointwise_holder_suite():
    _gate(5, 60.0, "factor {pointwise_factor:.6f} reproduced, certified/measured >= 1 "
                   "on {pointwise_fields} fields (min ratio {pointwise_domination:.2f})")


def test_acceptance_6_cordes_suite():
    _gate(6, 5.0, "margins exact (8/9, 1, 1, 2.75), n=2 coincidence, "
                  "orthogonal invariance x{rotations}, Hessian identity")


def test_acceptance_7_operator_suite():
    _gate(7, 30.0, "residual <= eps on {audit_samples} samples for all catalog specs, "
                   "normalization identities and FD gradient on {spd_matrices} seeded SPD matrices")


def test_acceptance_8_end_to_end_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    p1 = tmp_path / "selftest1.json"
    p2 = tmp_path / "selftest2.json"
    code1 = cli.main(["selftest", "--output", str(p1)])
    code2 = cli.main(["selftest", "--output", str(p2)])
    capsys.readouterr()
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    ok_bytes = b1 == b2
    payload = json.loads(b1)
    ok_pass = payload["all_pass"] and code1 == code2 == cli.EXIT_OK
    cert_checks = [c for c in payload["checks"] if c["name"] == "certificate_cubic_satisfied"]
    ok_cert = len(cert_checks) == 1 and cert_checks[0]["pass"]
    elapsed = time.perf_counter() - t0
    ok = ok_bytes and ok_pass and ok_cert
    _report(8, ok, f"selftest byte-identical ({len(b1)} bytes), all checks pass, "
                   f"harmonic-cubic certificate satisfied", elapsed)
    assert ok_bytes and ok_pass and ok_cert
