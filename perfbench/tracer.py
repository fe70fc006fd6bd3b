"""Outside-in span tracer: wraps the program's public functions at run time.

Nothing in the program changes.  ``Tracer.install`` replaces each traced
function or method with a wrapper that records a span (stage, start, end,
parent) and, for some stages, a few sizes taken from the arguments or the
result.  A module-level function is replaced in every loaded ``torloc``
module that bound it, so a name imported elsewhere (``cli`` binds ``les``
and ``check_exactness`` itself) is traced too.  Spans stay in memory until
the caller writes them out.

Stage names are ``<layer>.<stage>``; the layer is the program module, or
``sympy`` for its factorization dependency.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("io", "simplicial", "linalg", "torsor", "equivariant", "sympy", "ktheory", "cli", "suite")

# (module, attribute path, stage); a dotted path names a method.
TARGETS = (
    ("torloc.cli", "main", "cli.main"),
    ("torloc.cli", "emit", "cli.emit"),
    ("torloc.io", "load_json", "io.parse"),
    ("torloc.io", "parse_pair_input", "io.parse"),
    ("torloc.io", "parse_class_spec", "io.parse"),
    ("torloc.io", "parse_abbv_input", "io.parse"),
    ("torloc.io", "parse_ktheory_input", "io.parse"),
    ("torloc.simplicial", "SimplicialComplex.closure", "simplicial.closure"),
    ("torloc.simplicial", "cochain_complex", "simplicial.cochain"),
    ("torloc.simplicial", "relative_cochain_complex", "simplicial.cochain"),
    ("torloc.simplicial", "CochainComplex.__init__", "simplicial.cochain"),
    ("torloc.simplicial", "CochainPair.from_selection", "simplicial.pair"),
    ("torloc.simplicial", "CochainPair.__init__", "simplicial.pair"),
    ("torloc.linalg", "Matrix.rref", "linalg.elim"),
    ("torloc.linalg", "Matrix.solve", "linalg.elim"),
    ("torloc.linalg", "Matrix.__mul__", "linalg.matmul"),
    ("torloc.torsor", "cohomology", "torsor.cohomology"),
    ("torloc.torsor", "les", "torsor.les"),
    ("torloc.torsor", "check_exactness", "torsor.exactness"),
    ("torloc.torsor", "supported_lifts", "torsor.lifts"),
    ("torloc.torsor", "canonical_lift_if_unique", "torsor.lifts"),
    ("torloc.equivariant", "euler_class", "equivariant.euler"),
    ("torloc.equivariant", "invert_localized", "equivariant.invert"),
    ("torloc.equivariant", "PolyFraction.__add__", "equivariant.sum"),
    ("torloc.equivariant", "abbv_integrate", "equivariant.integrate"),
    ("torloc.equivariant", "concentration_check", "equivariant.integrate"),
    ("sympy", "factor_list", "sympy.factor"),
    ("torloc.ktheory", "lambda_minus_one", "ktheory.koszul"),
    ("torloc.ktheory", "fixed_point_sum", "ktheory.sum"),
    ("torloc.suite", "run_verify", "suite.verify"),
)

# Counted at the wrapper but not timed: the additions inside one
# fixed_point_sum span are too many and too small to time one by one.
COUNTED = (("torloc.ktheory", "LaurentRational.__add__", "ktheory.add"),)

SIZED_BEFORE = {"linalg.elim", "torsor.cohomology", "equivariant.invert", "io.parse"}
SIZED_AFTER = {"simplicial.closure", "equivariant.sum", "ktheory.add", "cli.emit", "cli.main"}
# Stage of the spans around the tracer's own size measurements; it belongs
# to no layer.
BOOKKEEPING = "trace.sizing"


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of it that its
    child spans cover.  ``spans`` holds (id, stage, start, end, parent)."""
    children = defaultdict(list)
    for sid, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _ in spans:
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[sid] = (end - start) - covered
    return out


def _span(poly) -> int:
    """Widest exponent range over the variables: the dense list length."""
    if not poly.terms:
        return 0
    return max(max(e[v] for e in poly.terms) - min(e[v] for e in poly.terms) + 1
               for v in range(poly.num_vars))


def _degree(poly) -> int:
    return max((sum(e) for e in poly.terms), default=0)


class Tracer:
    """Span recorder plus the counters measured at the same wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._dd_parents: set[int] = set()
        self._job_keys: dict[str, set] = defaultdict(set)
        self._job_refs: list = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _distinct(self, stage: str, key, keep=None) -> None:
        seen = self._job_keys[stage]
        if key not in seen:
            seen.add(key)
            self.counts[stage + ".distinct"] += 1
            if keep is not None:
                self._job_refs.append(keep)  # pins the id() used in the key

    def _before(self, stage: str, args) -> None:
        if stage == "linalg.elim":
            m = args[0]
            cells = m.rows * m.cols
            self.counts["linalg.elim.cells"] += cells
            self.counts["linalg.elim.nnz"] += sum(
                1 for i in range(m.rows) for x in m.row(i) if x)
            self.maxima["linalg.elim.max_cells"] = max(self.maxima["linalg.elim.max_cells"], cells)
        elif stage == "torsor.cohomology":
            self._distinct(stage, (id(args[0]), args[1]), args[0])
        elif stage == "equivariant.invert":
            self._distinct(stage, str(args[0]))
        elif stage == "io.parse" and isinstance(args[0], str):
            self.counts["io.input_bytes"] += os.path.getsize(args[0])

    def _after(self, stage: str, args, result) -> None:
        if stage == "simplicial.closure":
            self.counts["simplicial.simplices"] += result[0].simplex_count()
        elif stage == "equivariant.sum":
            den = result.den
            self.maxima["equivariant.sum.den_degree_max"] = max(
                self.maxima["equivariant.sum.den_degree_max"], den.total_degree())
            self.maxima["equivariant.sum.den_terms_max"] = max(
                self.maxima["equivariant.sum.den_terms_max"], len(den.terms))
        elif stage == "ktheory.add":
            a, b = args
            self.maxima["ktheory.sum.span_max"] = max(
                self.maxima["ktheory.sum.span_max"], _span(a.den) + _span(b.den) - 1)
            self.maxima["ktheory.sum.den_degree_max"] = max(
                self.maxima["ktheory.sum.den_degree_max"], _degree(result.den))
        elif stage == "cli.emit":
            self.counts["cli.report_bytes"] += len(result.encode("utf-8"))
        elif stage == "cli.main":
            self._job_keys.clear()
            self._job_refs.clear()

    def _book(self, parent, sizer, *args) -> None:
        """Run a sizer inside a bookkeeping span, so that its cost is
        taken out of the self time of the span that encloses it."""
        start = self.clock()
        sizer(*args)
        sid = self._next
        self._next += 1
        self.spans.append((sid, BOOKKEEPING, start, self.clock(), parent))

    def wrap(self, stage: str, fn):
        """``fn`` with a span of the given stage around every call."""
        stack = self._stack
        clock = self.clock
        sized_before = stage in SIZED_BEFORE
        sized_after = stage in SIZED_AFTER
        checks_dd = stage == "simplicial.cochain" and fn.__name__ == "__init__"

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            name = stage
            if stage == "linalg.matmul" and parent in self._dd_parents:
                name = "simplicial.ddcheck"
            elif checks_dd:
                self._dd_parents.add(sid)
            self.counts[name + ".calls"] += 1
            if sized_before:
                self._book(parent, self._before, name, args)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if sized_after:
                self._book(parent, self._after, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, stage: str, fn):
        """``fn`` with its calls and sizes counted, but no span."""
        stack = self._stack

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[stage + ".calls"] += 1
            self._book(stack[-1] if stack else None, self._after, stage, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- patching ------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch(self, module_name: str, path: str, make) -> None:
        module = sys.modules.get(module_name)
        owner_name, _, name = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if module is None or owner is None or name not in vars(owner):
            self.missing.append(f"{module_name}.{path}")
            return
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            self._set(owner, name, classmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        self._set(owner, name, wrapped)
        if not owner_name:
            # the same function bound under its name in other modules
            for other_name, other in list(sys.modules.items()):
                if other is not module and other_name.startswith("torloc") \
                        and vars(other).get(name) is raw:
                    self._set(other, name, wrapped)

    def install(self) -> None:
        """Wrap every target that is loaded; record the ones that are not."""
        for module_name, path, stage in TARGETS:
            self._patch(module_name, path, lambda fn, s=stage: self.wrap(s, fn))
        for module_name, path, stage in COUNTED:
            self._patch(module_name, path, lambda fn, s=stage: self.count(s, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        self._dd_parents.clear()

    def stage_self_times(self) -> dict[str, float]:
        own = self_times(self.spans)
        out: dict[str, float] = defaultdict(float)
        for sid, stage, *_ in self.spans:
            out[stage] += own[sid]
        return dict(out)


def layer_metrics(tracer: Tracer, stage_self: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    c, m = tracer.counts, tracer.maxima

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "linalg.elim.calls": c["linalg.elim.calls"],
        "linalg.elim.self_s": stage_self.get("linalg.elim", 0.0),
        "linalg.elim.cells": c["linalg.elim.cells"],
        "linalg.elim.nnz_frac": ratio(c["linalg.elim.nnz"], c["linalg.elim.cells"]),
        "linalg.elim.max_cells": m["linalg.elim.max_cells"],
        "linalg.matmul.calls": c["linalg.matmul.calls"],
        "linalg.matmul.self_s": stage_self.get("linalg.matmul", 0.0),
        "simplicial.closure.self_s": stage_self.get("simplicial.closure", 0.0),
        "simplicial.cochain.self_s": stage_self.get("simplicial.cochain", 0.0),
        "simplicial.pair.self_s": stage_self.get("simplicial.pair", 0.0),
        "simplicial.ddcheck.self_s": stage_self.get("simplicial.ddcheck", 0.0),
        "simplicial.simplices": c["simplicial.simplices"],
        "torsor.cohomology.calls": c["torsor.cohomology.calls"],
        "torsor.cohomology.distinct": c["torsor.cohomology.distinct"],
        "torsor.cohomology.useful_frac": ratio(c["torsor.cohomology.distinct"],
                                               c["torsor.cohomology.calls"]),
        "torsor.cohomology.self_s": stage_self.get("torsor.cohomology", 0.0),
    }
    for stage in ("les", "exactness", "lifts"):
        out[f"torsor.{stage}.calls"] = c[f"torsor.{stage}.calls"]
        out[f"torsor.{stage}.self_s"] = stage_self.get(f"torsor.{stage}", 0.0)
    out.update({
        "equivariant.invert.calls": c["equivariant.invert.calls"],
        "equivariant.invert.distinct": c["equivariant.invert.distinct"],
        "equivariant.invert.self_s": stage_self.get("equivariant.invert", 0.0),
        "equivariant.euler.self_s": stage_self.get("equivariant.euler", 0.0),
        "equivariant.integrate.self_s": stage_self.get("equivariant.integrate", 0.0),
        "sympy.factor.calls": c["sympy.factor.calls"],
        "sympy.factor.self_s": stage_self.get("sympy.factor", 0.0),
        "equivariant.sum.calls": c["equivariant.sum.calls"],
        "equivariant.sum.self_s": stage_self.get("equivariant.sum", 0.0),
        "equivariant.sum.den_degree_max": m["equivariant.sum.den_degree_max"],
        "equivariant.sum.den_terms_max": m["equivariant.sum.den_terms_max"],
        "ktheory.koszul.self_s": stage_self.get("ktheory.koszul", 0.0),
        "ktheory.sum.calls": c["ktheory.add.calls"],
        "ktheory.sum.self_s": stage_self.get("ktheory.sum", 0.0),
        "ktheory.sum.span_max": m["ktheory.sum.span_max"],
        "ktheory.sum.den_degree_max": m["ktheory.sum.den_degree_max"],
        "io.parse.self_s": stage_self.get("io.parse", 0.0),
        "io.input_bytes": c["io.input_bytes"],
        "cli.emit.self_s": stage_self.get("cli.emit", 0.0),
        "cli.report_bytes": c["cli.report_bytes"],
        "cli.main.self_s": stage_self.get("cli.main", 0.0),
        "suite.verify.self_s": stage_self.get("suite.verify", 0.0),
    })
    by_layer = Counter()
    for stage, seconds in stage_self.items():
        by_layer[stage.split(".")[0]] += seconds
    total = sum(by_layer[layer] for layer in LAYERS)
    for layer in LAYERS:
        out[f"{layer}.share"] = ratio(by_layer[layer], total)
    return out
