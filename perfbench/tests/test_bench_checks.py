import json
from fractions import Fraction

from checks import (
    check_report,
    chi_projective,
    complete_homogeneous,
    hyperplane_integral,
    parse_poly,
)
from workloads import sphere_betti, torus_betti, torus_complex


def direct_hyperplane_sum(n, k, point):
    """sum_i (-x_i)^k / prod_(j != i) (x_j - x_i), evaluated at a point."""
    total = Fraction(0)
    for i, xi in enumerate(point):
        den = Fraction(1)
        for j, xj in enumerate(point):
            if j != i:
                den *= xj - xi
        total += (-xi) ** k / den
    return total


def evaluate(poly, point):
    total = Fraction(0)
    for e, c in poly.items():
        term = c
        for x, k in zip(point, e):
            term *= x ** k
        total += term
    return total


def test_p1_by_hand():
    assert hyperplane_integral(1, 0) == {}
    assert hyperplane_integral(1, 1) == {(0, 0): 1}
    # x1^2/(x2 - x1) + x2^2/(x1 - x2) = -(x1 + x2)
    assert hyperplane_integral(1, 2) == parse_poly("-x1 - x2", 2)


def test_p2_by_hand():
    assert hyperplane_integral(2, 2) == {(0, 0, 0): 1}
    assert hyperplane_integral(2, 3) == parse_poly("-x1 - x2 - x3", 3)
    h2 = parse_poly("x1^2 + x1*x2 + x1*x3 + x2^2 + x2*x3 + x3^2", 3)
    assert hyperplane_integral(2, 4) == h2
    assert complete_homogeneous(2, 3) == h2


def test_hyperplane_reference_against_the_sum_itself():
    point = [Fraction(3), Fraction(-5, 2), Fraction(7), Fraction(11, 3)]
    for n in (1, 2, 3):
        for k in range(0, n + 4):
            assert evaluate(hyperplane_integral(n, k), point[: n + 1]) == \
                direct_hyperplane_sum(n, k, point[: n + 1])


def test_torus_3x3_by_hand():
    doc = torus_complex(3)
    tris = {tuple(sorted(t)) for t in doc["simplices"]}
    edges = {e for t in tris for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))}
    assert (len(doc["vertices"]), len(edges), len(tris)) == (9, 27, 18)
    assert 9 - 27 + 18 == 0 == sum((-1) ** d * b for d, b in enumerate(torus_betti()))
    assert torus_betti() == [1, 2, 1, 0]
    assert sphere_betti(3) == [1, 0, 1, 0]


def test_chi_p2_o3_is_10():
    assert chi_projective(2, 3) == 10
    assert chi_projective(1, 0) == 1
    assert [chi_projective(2, d) for d in (-2, -1)] == [0, 0]
    assert chi_projective(2, -3) == 1  # Serre duality: chi(O(-3)) = chi(O) on P^2


def test_parse_poly_reads_program_notation():
    assert parse_poly("-x1^2 + 3/2*x1*x3 - 2", 3) == {
        (2, 0, 0): Fraction(-1), (1, 0, 1): Fraction(3, 2), (0, 0, 0): Fraction(-2)}
    assert parse_poly("0", 2) == {}


def les_report(dims):
    rows = [{"degree": d, "dim_supported": 0, "dim_ambient": b, "dim_quotient": b,
             "rank_forget": 0, "rank_restrict": b, "rank_connect": 0,
             "composite_zero": True, "exact_at_supported": True,
             "exact_at_ambient": True, "exact_at_quotient": True}
            for d, b in enumerate(dims)]
    return json.dumps({"command": "les", "degrees": rows, "ok": True})


def test_les_check_uses_betti_numbers_and_ranks():
    spec = {"kind": "les", "betti": [1, 2, 1, 0]}
    assert check_report(spec, 0, les_report([1, 2, 1, 0])) is None
    assert "Betti" in check_report(spec, 0, les_report([1, 1, 1, 0]))
    bad = json.loads(les_report([1, 2, 1, 0]))
    bad["degrees"][1]["rank_restrict"] = 1
    assert "not exact" in check_report(spec, 0, json.dumps(bad))
    assert check_report(spec, 1, "") == "exit code 1"


def test_abbv_check_compares_polynomials():
    spec = {"kind": "abbv-hyperplane", "n": 1, "k": 2}

    def report(num):
        return json.dumps({"ok": True, "integral": {
            "fraction": num, "numerator": num, "denominator": "1", "is_polynomial": True}})

    assert check_report(spec, 0, report("-x1 - x2")) is None
    assert check_report(spec, 0, report("-x2 - x1")) is None
    assert check_report(spec, 0, report("x1 + x2")) is not None
    assert check_report({"kind": "abbv-euler", "n": 3}, 0, report("4")) is None
