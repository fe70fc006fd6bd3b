"""Reference values and per-report correctness checks.

Every reference here is computed from the mathematics of the job, not by
the program under test: Betti numbers of tori and spheres, the complete
homogeneous polynomials that hyperplane integrals over P^n equal, the
Euler characteristic n + 1 of P^n, and binomial counts of sections of
O(d).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

Poly = dict[tuple[int, ...], Fraction]


def complete_homogeneous(degree: int, num_vars: int) -> Poly:
    """h_degree(x_1, ..., x_num_vars): every monomial of that degree once."""
    if degree < 0:
        return {}
    out: Poly = {}
    for combo in combinations_with_replacement(range(num_vars), degree):
        e = [0] * num_vars
        for v in combo:
            e[v] += 1
        out[tuple(e)] = Fraction(1)
    return out


def hyperplane_integral(n: int, k: int) -> Poly:
    """The integral of H^k over P^n: (-1)^(k-n) h_(k-n), zero for k < n.

    With H restricted to -x_i at the i-th fixed point and tangent weights
    x_j - x_i, the fixed-point sum is sum_i (-x_i)^k / prod_(j!=i)(x_j - x_i),
    and sum_i x_i^k / prod_(j!=i)(x_i - x_j) = h_(k-n)(x).
    """
    sign = -1 if (k - n) % 2 else 1
    return {e: sign * c for e, c in complete_homogeneous(k - n, n + 1).items()}


def chi_projective(n: int, d: int) -> int:
    """chi(P^n, O(d)) = (d + 1)(d + 2)...(d + n) / n!: C(n + d, n) for
    d >= 0, zero for -n <= d < 0."""
    return prod(d + i for i in range(1, n + 1)) // factorial(n)


def parse_poly(text: str, num_vars: int) -> Poly:
    """Parse the program's polynomial notation, e.g. '-x1^2 + 3/2*x1*x3 - 2'."""
    out: Poly = {}
    if text.strip() == "0":
        return out
    tokens = text.split()
    terms = [("-" if tokens[0].startswith("-") else "+", tokens[0].lstrip("-"))]
    if len(tokens) % 2 != 1:
        raise ValueError(f"malformed polynomial {text!r}")
    for sign, body in zip(tokens[1::2], tokens[2::2]):
        if sign not in "+-":
            raise ValueError(f"malformed polynomial {text!r}")
        terms.append((sign, body))
    for sign, body in terms:
        coeff = Fraction(1)
        e = [0] * num_vars
        for factor in body.split("*"):
            if factor.startswith("x"):
                var, _, power = factor[1:].partition("^")
                e[int(var) - 1] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(e)
        out[key] = out.get(key, Fraction(0)) + (coeff if sign == "+" else -coeff)
        if not out[key]:
            del out[key]
    return out


def _check_les(spec: dict, report: dict) -> str | None:
    if not report.get("ok"):
        return "les: ok is false"
    rows = report["degrees"]
    verdicts = ("composite_zero", "exact_at_supported", "exact_at_ambient", "exact_at_quotient")
    for row in rows:
        if not all(row[v] is True for v in verdicts):
            return f"les: a verdict is false in degree {row['degree']}"
    by_degree = {row["degree"]: row for row in rows}
    for d, row in by_degree.items():
        # exactness read off the reported ranks, not the reported verdicts
        nxt = by_degree.get(d + 1, {"rank_connect": 0})
        if row["rank_connect"] + row["rank_forget"] != row["dim_supported"] \
                or row["rank_forget"] + row["rank_restrict"] != row["dim_ambient"] \
                or row["rank_restrict"] + nxt["rank_connect"] != row["dim_quotient"]:
            return f"les: ranks are not exact in degree {d}"
    if "betti" in spec:
        dims = [by_degree[d]["dim_ambient"] for d in sorted(by_degree)]
        if dims != spec["betti"]:
            return f"les: ambient dimensions {dims}, expected Betti numbers {spec['betti']}"
    return None


def _check_lifts(spec: dict, report: dict) -> str | None:
    if report.get("degree") != spec["degree"]:
        return "lifts: wrong degree"
    if [Fraction(c) for c in report["class_coordinates"]] != [Fraction(c) for c in spec["coordinates"]]:
        return "lifts: class coordinates differ from the input"
    k = report["direction_count"]
    dim = report["ambient_dim"]
    if len(report["directions"]) != k or k > dim or len(report["base_lift"]) != dim:
        return "lifts: torsor shape is inconsistent"
    if any(len(v) != dim for v in report["directions"]):
        return "lifts: a direction has the wrong length"
    if (report["canonical_lift"] is None) != (k > 0):
        return "lifts: canonical lift disagrees with the direction count"
    return None


def _check_abbv(spec: dict, report: dict) -> str | None:
    integral = report.get("integral")
    if not report.get("ok") or integral is None:
        return "abbv: no integral"
    if not integral["is_polynomial"] or integral["denominator"] != "1":
        return "abbv: integral is not a polynomial"
    n = spec["n"]
    got = parse_poly(integral["numerator"], n + 1)
    if spec["kind"] == "abbv-euler":
        want = {(0,) * (n + 1): Fraction(n + 1)}
    else:
        want = hyperplane_integral(n, spec["k"])
    if got != want:
        return f"abbv: integral {integral['numerator']} is wrong"
    return None


def _check_ktheory(spec: dict, report: dict) -> str | None:
    if report.get("is_character") is not True:
        return "ktheory: not a character"
    want = chi_projective(spec["n"], spec["d"])
    if Fraction(report["value_at_one"]) != want:
        return f"ktheory: value at 1 is {report['value_at_one']}, expected {want}"
    return None


def check_report(spec: dict, exit_code, stdout: str) -> str | None:
    """None when the job's report is right, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if spec["kind"] == "verify":
        return None
    try:
        report = json.loads(stdout)
        if spec["kind"] == "les":
            return _check_les(spec, report)
        if spec["kind"] == "lifts":
            return _check_lifts(spec, report)
        if spec["kind"].startswith("abbv"):
            return _check_abbv(spec, report)
        if spec["kind"] == "ktheory":
            return _check_ktheory(spec, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    raise ValueError(f"unknown check kind {spec['kind']!r}")
