"""The thirteen acceptance criteria, one pass/fail line each.

Every identity is stated once, as a named check in `jacobilift.verify`;
each criterion asserts a listed set of those checks from one run of
`jacobilift verify all --json`.  Each test prints a single
"criterion NN PASS/FAIL" line, re-emitted in the terminal summary.
"""

from conftest import named_checks, record

CRITERIA = {
    1: ("generator q^0 and q^1 rows match the displayed expansions", [
        f"phi_0{m} q^{n} row golden" for n in (0, 1) for m in (1, 2, 3, 4)
    ]),
    2: ("ring relations (4*phi04 and the xi06 identity) for 10 q-orders", [
        "4*phi_04 == phi_01*phi_03 - phi_02^2 (10 q-orders)",
        "xi_06 == -phi1^2 phi4 + 9 phi1 phi2 phi3 - 8 phi2^3 - 27 phi3^2 (10 q-orders)",
    ]),
    3: ("canonical basis exists for m <= 12 with the stated q^0 shape", [
        "basis (m <= 12) q^0 canonical shape",
        "psi^(1)_{0,5} q^0 row == 5y + 2 + 5/y",
    ]),
    4: ("both linear residuals vanish on generators, basis and 100 random forms", [
        "residuals vanish on generators and basis",
        "residuals vanish on 100 random generator polynomials",
    ]),
    5: ("T_-(2) identity, the T_-(3) construction of psi^(3)_{0,3} and T_0(2)", [
        "phi_01|T_-(2) - 2 phi_02 == phi_01^2 - 20 phi_02 (6 q-orders)",
        "psi^(3)_{0,3} == phi_01|T_-(3) - 3 phi_03 (6 q-orders)",
        "phi_02|T_0(2) is a norm-determined index-2 form",
    ]),
    6: ("torsion/center special values (alpha, beta, gamma, xi06, hat values)", [
        "alpha q^0..q^5 coefficients",
        "phi03(1/4) = 2*theta00(2t)/theta01(2t)",
        "alpha = 16*gamma**4 - 8",
        "alpha**2 - 64 = 2**12 Delta(2t)/Delta(t)",
        "beta**3 - 27 = 3**6 (eta(3t)/eta(t))**12",
        "alpha has positive coefficients",
        "gamma has positive coefficients",
        "xi06(1/2) = 2**12 Delta(2t)/Delta(t)",
        "xi06(1/3) = 3**6 (eta(3t)/eta(t))**12",
        "xi06(1/4) = 2**6 (eta(4t)/eta(2t))**12",
        "xi06(1/6) = (eta(t)eta(6t)/(eta(2t)eta(3t)))**12",
        "hat phi_03 == 0",
        "hat phi_04 == -1",
        "hat phi_02 == -2",
        "hat phi_01^2 + 64 == (theta_00/eta)^12",
    ]),
    7: ("congruence battery on 200 random weight-0 forms of index 1..8", [
        "congruence battery on 200 random forms of index 1..8",
    ]),
    8: ("CY layer: K3, Enriques, forced relations and rejections for d = 4, 5, 7,"
        " and the d = 4, 8 assemblies", [
        "genus(K3) == 2 phi_01 (5 q-orders)",
        "genus(Enriques) == phi_01 (5 q-orders)",
        "d=4: chi2 = 22*chi0 - 4*chi1 holds for chi (1,4,6,4,1)",
        "d=4: chi (1,4,7,4,1) breaks chi2 = 22*chi0 - 4*chi1 and e mod 6, and has no genus",
        "d=5: e = 24 gives chi1 = -1, chi2 = 11 and every relation; e = 23 is rejected",
        "d=7: e(M7) = 12*(chi2 - 3*chi1) holds for chi (0,1,3,2,-2,-3,-1,0),"
        " fails for (0,1,2,3,-3,-2,-1,0)",
        "-chi(M4) == -chi0 psi_A + chi1 phi_02",
        "-chi(M8) == chi3 phi_04 - chi2 phi_01(2z) + chi1 psi^(3) - chi0 psi^(4)",
    ]),
    9: ("dual constructions: the Delta5, Delta2, Delta1 additive lifts, the"
        " theta-constant product, Delta_1/2, Delta11 and the index-6 quotient", [
        "exp_lift(phi_01) == arithmetic_lift(Delta5), weight2 10, character order 2 (q,s <= 3,3)",
        "exp_lift(phi_02) == arithmetic_lift(Delta2), weight2 4, character order 4 (q,s <= 3,3)",
        "exp_lift(phi_03) == arithmetic_lift(Delta1), weight2 2, character order 6 (q,s <= 3,3)",
        "Delta2 leading terms q^(1/4)s^(1/2)(y^(1/2) - y^(-1/2))",
        "2^(-12) prod Theta_ab^2 == exp_lift(2 phi_01) (q,s <= 2)",
        "Delta5 antisymmetric under y -> 1/y",
        "exp_lift(phi_04)(t,z,w) == Delta_1/2(t,2z,4w) (q,s <= 3)",
        "Delta5(Z)Delta5(2z,4w)Delta5(z,w+1/2) == i Delta11 Delta2^2",
        "index-6 quotient reduction: difference of lift inputs == 2 phi_06",
    ]),
    10: ("anomaly * SQEG == exp_lift(-genus) for K3 and a synthetic fourfold", [
        "anomaly * SQEG == exp_lift(-genus) for K3 (q,s <= 2)",
        "anomaly * SQEG == exp_lift(-genus) for CY4(1,4,6,4,1) (q,s <= 2)",
    ]),
    11: ("SQEG: p^1 slice is the genus; K3 at y=1 gives 1, 24, 324", [
        "SQEG p^1 coefficient equals the input genus",
        "SQEG(K3) at y=1 == prod (1-p^n)^(-24): rows 1, 24, 324",
    ]),
    12: ("Humbert multiplicities: +1/-1 pair, {+1,-1,+12,-12} and the K3 pole", [
        "Phi_3 divisor: H_1(0) - H_1(5)",
        "Phi_5 divisor: H_9(3) - H_9(7) + 12 H_1(1) - 12 H_1(9)",
        "K3: pole of order 2 along H_1(0)",
    ]),
    13: ("exp-lift homomorphism for |a|,|b| <= 2 and mirror inversion at d = 3", [
        "exp_lift(a*phi + b*psi) == exp_lift(phi)^a exp_lift(psi)^b, |a|,|b| <= 2",
        "E(CY3, e=-2) * E(CY3, e=+2) == 1 (q,s <= 1)",
    ]),
}


def criterion(report, number):
    """Assert criterion `number`: each of its checks is present exactly once
    in the report and ok.  Returns the checks by name."""
    description, names = CRITERIA[number]
    ok = False
    try:
        checks = named_checks(report, names)
        failed = [c["name"] for c in checks if not c["ok"]]
        ok = not failed
        assert ok, f"criterion {number}: {description}; failed: {failed}"
    finally:
        record(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    return {c["name"]: c for c in checks}


def criterion_test(number):
    def test(verify_all):
        criterion(verify_all, number)

    return test


test_criterion_01_generator_goldens = criterion_test(1)
test_criterion_02_ring_relations = criterion_test(2)
test_criterion_03_basis_structure = criterion_test(3)
test_criterion_04_residuals = criterion_test(4)
test_criterion_05_hecke = criterion_test(5)
test_criterion_06_specializations = criterion_test(6)
test_criterion_07_congruences = criterion_test(7)
test_criterion_08_cy_layer = criterion_test(8)
test_criterion_09_dual_construction = criterion_test(9)
test_criterion_10_factorization = criterion_test(10)


def test_criterion_11_sqeg_sanity(verify_all):
    checks = criterion(verify_all, 11)
    rows = checks["SQEG(K3) at y=1 == prod (1-p^n)^(-24): rows 1, 24, 324"]["detail"]
    assert rows == [[0, 0, 1], [24, 0, 24], [48, 0, 324]]


test_criterion_12_divisor_data = criterion_test(12)
test_criterion_13_homomorphism_and_mirror = criterion_test(13)


def test_every_check_is_named_by_a_criterion(verify_all):
    named = {name for _, names in CRITERIA.values() for name in names}
    checks = {c["name"] for suite in verify_all["suites"] for c in suite["checks"]}
    assert [s["suite"] for s in verify_all["suites"]] == [
        "ring", "basis", "hecke", "congruences", "lifts",
    ]
    assert checks == named, sorted(checks ^ named)


def test_every_suite_reports_its_seconds(verify_all):
    for suite in verify_all["suites"]:
        assert isinstance(suite["seconds"], float) and suite["seconds"] >= 0, suite["suite"]
