"""Input contract: exact numbers only, structural validation with
pointed error messages, and the parsers for each job kind."""

from fractions import Fraction

import pytest

from torloc import io as tio
from torloc.equivariant import ComponentAlgebra, GradedPoly
from torloc.ktheory import LaurentPoly
from torloc.torsor import cohomology

CIRCLE = {
    "complex": {
        "vertices": ["a", "b", "c", "d"],
        "simplices": [[0, 1], [1, 2], [2, 3], [0, 3]],
    },
    "closed_vertices": [0, 2],
}


# -- numbers -----------------------------------------------------------------


def test_exact_number_accepts_ints_and_ratio_strings():
    assert tio.exact_number(3, "x") == Fraction(3)
    assert tio.exact_number(-2, "x") == Fraction(-2)
    assert tio.exact_number("6/4", "x") == Fraction(3, 2)
    assert tio.exact_number("-7", "x") == Fraction(-7)


@pytest.mark.parametrize("bad", [True, False, "abc", "1/0", None, [1]])
def test_exact_number_refuses_everything_else(bad):
    with pytest.raises(tio.ValidationError):
        tio.exact_number(bad, "x")


def test_floats_are_stopped_at_the_parser():
    with pytest.raises(tio.ValidationError, match="inexact"):
        tio.parse_json_text('{"a": 1.5}')
    with pytest.raises(tio.ValidationError, match="inexact"):
        tio.parse_json_text('{"a": NaN}')
    with pytest.raises(tio.ValidationError, match="inexact"):
        tio.parse_json_text('[1e3]')


def test_malformed_json_reports_position():
    with pytest.raises(tio.ParseError, match="line 1"):
        tio.parse_json_text("{oops}")


def test_missing_file_is_a_parse_error():
    with pytest.raises(tio.ParseError, match="cannot read"):
        tio.load_json("/nonexistent/job.json")


# -- complexes and pairs -----------------------------------------------------


def test_parse_complex_takes_the_closure():
    cx, added = tio.parse_complex(CIRCLE["complex"])
    assert cx.n_vertices == 4
    assert cx.simplex_count() == 8
    assert added == [(0,), (1,), (2,), (3,)]


@pytest.mark.parametrize(
    "broken",
    [
        {"vertices": ["a", 1], "simplices": []},
        {"vertices": ["a", "a"], "simplices": []},
        {"vertices": ["a"], "simplices": [[0, 1]]},
        {"vertices": ["a"], "simplices": [["x"]]},
        {"vertices": ["a"]},
        [],
    ],
)
def test_parse_complex_rejections(broken):
    with pytest.raises(tio.ValidationError):
        tio.parse_complex(broken)


def test_closed_vertices_by_index_or_label():
    cx, _ = tio.parse_complex(CIRCLE["complex"])
    by_index = tio.parse_closed_vertices(cx, [0, 2])
    by_label = tio.parse_closed_vertices(cx, ["a", "c"])
    assert by_index.vertices == by_label.vertices == frozenset({0, 2})
    with pytest.raises(tio.ValidationError):
        tio.parse_closed_vertices(cx, ["z"])
    with pytest.raises(tio.ValidationError):
        tio.parse_closed_vertices(cx, [True])


def test_pair_input_needs_the_closed_part():
    with pytest.raises(tio.ValidationError, match="closed_vertices"):
        tio.parse_pair_input({"complex": CIRCLE["complex"]})


# -- class inputs --------------------------------------------------------------


def circle_pair():
    return tio.parse_pair_input(CIRCLE)[2]


def test_class_from_coordinates():
    pair = circle_pair()
    cls = tio.parse_class_spec({"degree": 1, "coordinates": ["3/2"]}, pair)
    assert cls.degree == 1
    assert cls.coordinates == (Fraction(3, 2),)


def test_class_from_cocycle():
    pair = circle_pair()
    basis = cohomology(pair.absolute, 1)
    vals = [str(v) for v in basis.representatives[0]]
    cls = tio.parse_class_spec({"degree": 1, "cocycle": vals}, pair)
    assert cls.coordinates == (Fraction(1),)


@pytest.mark.parametrize(
    "spec",
    [
        {"degree": -1, "coordinates": [1]},
        {"degree": True, "coordinates": [1]},
        {"degree": 1},
        {"degree": 1, "coordinates": [1, 2]},
        {"degree": 1, "cocycle": [1]},
    ],
)
def test_class_spec_rejections(spec):
    with pytest.raises(tio.ValidationError):
        tio.parse_class_spec(spec, circle_pair())


def test_non_cocycle_is_refused():
    pair = circle_pair()
    n = pair.absolute.dim(0)
    vals = [0] * n
    vals[0] = 1  # a single vertex is not closed on the circle
    with pytest.raises(tio.ValidationError, match="not a cocycle"):
        tio.parse_class_spec({"degree": 0, "cocycle": vals}, pair)


# -- polynomials and algebras --------------------------------------------------


def test_parse_poly():
    p = tio.parse_poly(GradedPoly, {"2,0": 1, "1,1": "1/2"}, 2, "poly")
    assert p == GradedPoly(2, {(2, 0): 1, (1, 1): Fraction(1, 2)})
    with pytest.raises(tio.ValidationError, match="negative exponent"):
        tio.parse_poly(GradedPoly, {"-1,0": 1}, 2, "poly")
    with pytest.raises(tio.ValidationError):
        tio.parse_poly(GradedPoly, {"1": 1}, 2, "poly")
    with pytest.raises(tio.ValidationError):
        tio.parse_poly(GradedPoly, {"a,b": 1}, 2, "poly")


def test_parse_laurent_allows_negative_exponents():
    p = tio.parse_poly(LaurentPoly, {"-3": 1, "0": "2/3"}, 1, "laurent")
    assert p == LaurentPoly(1, {(-3,): 1, (0,): Fraction(2, 3)})


def test_parse_algebra_point_shorthand():
    assert tio.parse_algebra("point").dim == 1


def test_parse_algebra_table():
    alg = tio.parse_algebra(
        {"basis_degrees": [0, 2, 4], "products": {"1,1": [0, 0, 1], "1,2": [0, 0, 0], "2,2": [0, 0, 0]}}
    )
    assert alg.basis_degrees == ComponentAlgebra.truncated(3).basis_degrees
    assert alg.nilpotency_order == 3
    with pytest.raises(tio.ValidationError):
        tio.parse_algebra({"basis_degrees": [0, 2], "products": {"oops": [0, 0]}})
    with pytest.raises(tio.ValidationError):
        tio.parse_algebra({"basis_degrees": [0, 3], "products": {"1,1": [0, 0]}})


# -- job inputs -----------------------------------------------------------------


def test_parse_abbv_input_weight_forms():
    components, restrictions = tio.parse_abbv_input(
        {
            "num_vars": 2,
            "components": [
                {
                    "weights": [[-1, 1], [[1, 0], 2]],
                    "restriction": {"poly": {"1,0": 1}},
                }
            ],
        }
    )
    fc = components[0]
    assert fc.num_vars == 2
    assert [m for _, m in fc.weights] == [1, 2]
    assert restrictions[0].coeffs[0] == GradedPoly(2, {(1, 0): 1})


@pytest.mark.parametrize(
    "broken",
    [
        {"components": []},
        {"num_vars": 0, "components": [{}]},
        {"num_vars": 2, "components": []},
        {"num_vars": 2, "components": [{"weights": [[0, 0]], "restriction": "unit"}]},
        {"num_vars": 2, "components": [{"weights": [[1, 0]]}]},
        {"num_vars": 2, "components": [{"weights": [[1, 0]], "restriction": {}}]},
        {"num_vars": 2, "components": [{"weights": [[[1, 0], True]], "restriction": "unit"}]},
        {
            "num_vars": 2,
            "components": [
                {
                    "algebra": {"basis_degrees": [0, 2], "products": {"1,1": [0, 0]}},
                    "weights": [[1, 0]],
                    "corrections": [{"9": 1}],
                    "integration": {"1": 1},
                    "restriction": "unit",
                }
            ],
        },
    ],
)
def test_parse_abbv_rejections(broken):
    with pytest.raises(tio.ValidationError):
        tio.parse_abbv_input(broken)


def test_parse_ktheory_input():
    points = tio.parse_ktheory_input(
        {
            "num_vars": 1,
            "points": [
                {"fiber": {"0": 1}, "conormal": [[-1]]},
                {"fiber": {"-2": 1}, "conormal": [[1]]},
            ],
        }
    )
    assert len(points) == 2
    assert points[1].fiber == LaurentPoly(1, {(-2,): 1})
    assert points[1].conormals == ((1,),)


@pytest.mark.parametrize(
    "broken",
    [
        {"points": [{"fiber": {"0": 1}, "conormal": [[1]]}]},
        {"num_vars": 1, "points": []},
        {"num_vars": 1, "points": [{"fiber": {"0": 1}, "conormal": [[0]]}]},
        {"num_vars": 1, "points": [{"fiber": {"0": 1.5}, "conormal": [[1]]}]},
        {"num_vars": 2, "points": [{"fiber": {"0": 1}, "conormal": [[1]]}]},
    ],
)
def test_parse_ktheory_rejections(broken):
    with pytest.raises(tio.ValidationError):
        tio.parse_ktheory_input(broken)
