"""Command line front end: one job per invocation, one report out.

Reports go to stdout and are byte-identical across runs on the same
input; the wall-clock line goes to stderr so timing never perturbs a
golden file.  Exit status: 0 when every check passed, 1 when a check or
the requested computation failed, 2 when the input was unusable.

A failed computation reports ``{"error": {"type": ..., "message": ...}}``
on stdout.  Any other exception escaping a job (a broken internal
invariant, such as the inversion round trip, raises RuntimeError) is a
defect of the program, not of the input: it is reported the same way
with type ``InternalError``, with the original exception in the message
and where it was raised on stderr, and also exits 1.

Each handler imports the engine it runs, so that a job loads only what
it needs; start-up is a large part of a small job's time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from . import io as tio
from .simplicial import InvalidComplex, NotSubcomplex, UnknownVertex
from .torsor import (
    NotInTorsor,
    NotSupported,
    canonical_lift_if_unique,
    check_exactness,
    les,
    supported_lifts,
)

__all__ = ["main", "emit"]


def _engine_errors() -> tuple[type[Exception], ...]:
    """Failures of the requested computation, as opposed to unusable input.

    Parse-time occurrences of these are already wrapped in ValidationError
    by the io layer; reaching one here means the job itself is at fault.
    Looked up only when a job fails, so that no job imports an engine it
    does not run.
    """
    from .equivariant import NotInvertible, NotProper, ZeroWeight
    from .ktheory import MultivariateUnsupported, PoleAtOne, TrivialCharacter
    from .poly import ArityMismatch

    return (
        NotSupported,
        NotInTorsor,
        NotInvertible,
        NotProper,
        ZeroWeight,
        ArityMismatch,
        TrivialCharacter,
        MultivariateUnsupported,
        PoleAtOne,
        InvalidComplex,
        NotSubcomplex,
        UnknownVertex,
    )


def _vec(values) -> list[str]:
    return [str(x) for x in values]


# -- report construction, one handler per command ------------------------


def _pair_preamble(obj):
    cx, z, pair, added = tio.parse_pair_input(obj)
    preamble = {
        "vertices": cx.n_vertices,
        "simplices": cx.simplex_count(),
        "closed_vertices": sorted(z.vertices),
        "added_faces": [list(s) for s in added],
    }
    return cx, z, pair, preamble


def _cmd_les(args) -> tuple[dict, bool]:
    obj = tio.load_json(args.input)
    _, _, pair, preamble = _pair_preamble(obj)
    if args.degree is not None and args.degree < 0:
        raise tio.ValidationError("--degree: expected a nonnegative integer")
    ex = check_exactness(pair)
    known = set(ex.degrees)
    degrees = list(ex.degrees) if args.degree is None else [args.degree]
    rows = []
    for d in degrees:
        seq = les(pair, d)
        if d in known:
            verdicts = (
                ex.composite_zero[d],
                ex.exact_at_rel[d],
                ex.exact_at_abs[d],
                ex.exact_at_quot[d],
            )
        else:
            # beyond the top degree every space is zero
            verdicts = (True, True, True, True)
        rows.append({
            "degree": d,
            "dim_supported": seq.basis_rel.dim,
            "dim_ambient": seq.basis_abs.dim,
            "dim_quotient": seq.basis_quot.dim,
            "rank_forget": seq.forget.rank(),
            "rank_restrict": seq.restrict.rank(),
            "rank_connect": seq.connect.rank(),
            "composite_zero": verdicts[0],
            "exact_at_supported": verdicts[1],
            "exact_at_ambient": verdicts[2],
            "exact_at_quotient": verdicts[3],
        })
    report = {"command": "les", **preamble, "degrees": rows, "ok": ex.ok}
    return report, ex.ok


def _cmd_lifts(args) -> tuple[dict, bool]:
    obj = tio.load_json(args.input)
    _, _, pair, preamble = _pair_preamble(obj)
    if "class" not in obj:
        raise tio.ValidationError("input: missing 'class'")
    cls = tio.parse_class_spec(obj["class"], pair)
    torsor = supported_lifts(pair, cls)
    unique = canonical_lift_if_unique(torsor)
    k = len(torsor.delta_image_basis)
    if k == 0:
        verdict = "unique"
    elif k == 1:
        verdict = "non-singleton (affine line)"
    else:
        verdict = f"non-singleton (affine {k}-space)"
    report = {
        "command": "lifts",
        **preamble,
        "degree": cls.degree,
        "class_coordinates": _vec(cls.coordinates),
        "ambient_dim": torsor.ambient.dim,
        "direction_count": k,
        "directions": [_vec(v) for v in torsor.delta_image_basis],
        "base_lift": _vec(torsor.base_lift),
        "verdict": verdict,
        "canonical_lift": None if unique is None else _vec(unique.coordinates),
    }
    return report, True


def _cmd_abbv(args) -> tuple[dict, bool]:
    from .equivariant import abbv_integrate, concentration_check

    obj = tio.load_json(args.input)
    components, restrictions = tio.parse_abbv_input(obj)
    conc = concentration_check(components)
    ok = all(r.ok for r in conc)
    integral = None
    if ok:
        total = abbv_integrate(components, restrictions)
        integral = {
            "fraction": str(total),
            "numerator": str(total.num),
            "denominator": str(total.den),
            "is_polynomial": total.is_polynomial(),
        }
        if total.is_polynomial() and total.num.total_degree() == 0:
            integral["constant"] = str(total.num.constant_value())
    report = {
        "command": "abbv",
        "num_vars": components[0].num_vars,
        "component_count": len(components),
        "concentration": [
            {"component": r.index, "ok": r.ok, "problems": list(r.problems)}
            for r in conc
        ],
        "integral": integral,
        "ok": ok,
    }
    return report, ok


def _cmd_ktheory(args) -> tuple[dict, bool]:
    from .ktheory import fixed_point_sum, is_character

    obj = tio.load_json(args.input)
    points = tio.parse_ktheory_input(obj)
    total = fixed_point_sum(points)
    report = {
        "command": "ktheory",
        "num_vars": total.num.num_vars,
        "point_count": len(points),
        "fraction": str(total),
    }
    if total.num.num_vars == 1:
        ch = is_character(total)
        report["is_character"] = ch is not None
        report["character"] = None if ch is None else str(ch)
        report["value_at_one"] = None if ch is None else str(ch.coefficient_sum())
    else:
        # collapse detection is univariate; report the raw fraction only
        report["is_character"] = None
        report["character"] = None
        report["value_at_one"] = None
    return report, True


def _cmd_verify(args) -> tuple[dict, bool]:
    from .suite import run_verify

    report = run_verify(args.seed)
    return report, report["ok"]


# -- serialization --------------------------------------------------------


def emit(report: dict, fmt: str) -> str:
    """Serialize a report; identical reports give identical bytes."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines: list[str] = []
    _render(report, 0, lines)
    return "\n".join(lines) + "\n"


def _scalar(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    if isinstance(v, dict):
        return "{}"
    if isinstance(v, list):
        return "[]"
    return str(v)


def _inline(v) -> str | None:
    """Short scalar lists render on one line; anything nested does not."""
    if isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v):
        return "[" + ", ".join(_scalar(x) for x in v) + "]"
    return None


def _render(value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and _inline(v) is None:
                out.append(f"{pad}{k}:")
                _render(v, indent + 1, out)
            else:
                flat = _inline(v)
                out.append(f"{pad}{k}: {flat if flat is not None else _scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v and _inline(v) is None:
                out.append(f"{pad}-")
                _render(v, indent + 1, out)
            else:
                flat = _inline(v)
                out.append(f"{pad}- {flat if flat is not None else _scalar(v)}")
    else:
        out.append(f"{pad}{_scalar(value)}")


# -- entry point -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torloc",
        description="Exact engines for supported cohomology refinements, "
        "fixed-point integration, and character-valued Euler characteristics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def job(name: str, help_: str, needs_input: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if needs_input:
            p.add_argument("--input", required=True, metavar="PATH",
                           help="path to the JSON job description")
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="report format (default: json)")
        return p

    p = job("les", "long exact sequence ranks and exactness for a pair")
    p.add_argument("--degree", type=int, default=None,
                   help="restrict the report to one degree")
    job("lifts", "the torsor of supported refinements of a class")
    job("abbv", "fixed-point integration over the parameter fraction field")
    job("ktheory", "character-valued Euler characteristic from fixed-point data")
    p = job("verify", "run the builtin check suite", needs_input=False)
    p.add_argument("--seed", type=int, default=42,
                   help="seed for the randomized sweeps (default: 42)")
    return parser


_HANDLERS = {
    "les": _cmd_les,
    "lifts": _cmd_lifts,
    "abbv": _cmd_abbv,
    "ktheory": _cmd_ktheory,
    "verify": _cmd_verify,
}


def _timing(command: str, start: float) -> None:
    # stderr only: stdout must stay byte-identical across runs
    elapsed = time.perf_counter() - start
    print(f"torloc {command}: {elapsed:.3f}s", file=sys.stderr)


def _failure(args, start: float, kind: str, message: str) -> int:
    report = {"command": args.command, "error": {"type": kind, "message": message}}
    sys.stdout.write(emit(report, args.format))
    _timing(args.command, start)
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report, ok = _HANDLERS[args.command](args)
    except (tio.ParseError, tio.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if isinstance(exc, _engine_errors()):
            return _failure(args, start, type(exc).__name__, str(exc))
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        print(
            f"internal error: {type(exc).__name__} raised at "
            f"{Path(code.co_filename).name}:{tb.tb_lineno} in {code.co_name}",
            file=sys.stderr,
        )
        return _failure(args, start, "InternalError", f"{type(exc).__name__}: {exc}")
    sys.stdout.write(emit(report, args.format))
    _timing(args.command, start)
    return 0 if ok else 1
