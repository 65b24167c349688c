"""Acceptance suite: one test per criterion, each printing its pass/fail row.

Run with `pytest tests/test_acceptance.py -s` to see the table, or
`sphtrans accept` for the same checks outside pytest.
"""

from sphtrans import acceptance


def _check(criterion):
    outcome = acceptance.timed(criterion)
    print(outcome.row())
    assert outcome.passed, outcome.row()


def test_a1_inversion_sl2r():
    _check(acceptance.a1_inversion_sl2r)


def test_a1_inversion_h3():
    _check(acceptance.a1_inversion_h3)


def test_a2_plancherel_identity():
    _check(acceptance.a2_plancherel)


def test_a3_weyl_functional_equation():
    _check(acceptance.a3_weyl)


def test_a4_casimir_homomorphism():
    _check(acceptance.a4_casimir)


def test_a5_expansion_convergence():
    _check(acceptance.a5_expansion)


def test_a6_stability_gain():
    _check(acceptance.a6_stability)


def test_a7_c_function_cross_validation():
    _check(acceptance.a7_c_oracle)


def test_a8_eigenfunction_transform_identity():
    _check(acceptance.a8_eigenfunction_identity)


def test_a9_membership_suite():
    _check(acceptance.a9_membership)
