"""Seeded job generators for the four benchmark workloads.

Each generator turns a seed into a list of CLI jobs: a command, an input
JSON document and a check spec that ``checks.check_report`` evaluates
against a reference computed here, independently of the program.  The
program only ever sees the JSON files written by ``materialize``.

Sizes are fixed per workload; the seed draws the details inside each size
class (closed vertices, lifted classes, fixed-point order, twists,
weights).  Holding the sizes fixed keeps the work per pass nearly the same
for every seed, so run-to-run spread reflects the program and the machine,
not the draw.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations

WORKLOADS = ("les-torus", "abbv-proj", "ktheory-proj", "small-mixed")

# Bundled datasets and the reference each one is checked against.
BUNDLED = (
    ("circle_lifts.json", "les", {"kind": "les", "betti": [1, 1, 0]}),
    ("circle_lifts.json", "lifts", {"kind": "lifts", "degree": 1, "coordinates": ["1"]}),
    ("kth_p2_d3.json", "ktheory", {"kind": "ktheory", "n": 2, "d": 3}),
    ("p1_abbv_unit.json", "abbv", {"kind": "abbv-hyperplane", "n": 1, "k": 0}),
    ("p1_abbv_euler.json", "abbv", {"kind": "abbv-euler", "n": 1}),
    ("p1_abbv_hyperplane.json", "abbv", {"kind": "abbv-hyperplane", "n": 1, "k": 1}),
    ("p2_abbv_unit.json", "abbv", {"kind": "abbv-hyperplane", "n": 2, "k": 0}),
    ("p2_abbv_euler.json", "abbv", {"kind": "abbv-euler", "n": 2}),
    ("p3_abbv_unit.json", "abbv", {"kind": "abbv-hyperplane", "n": 3, "k": 0}),
    ("p3_abbv_euler.json", "abbv", {"kind": "abbv-euler", "n": 3}),
)


def job(job_id: str, command: str, payload, check: dict) -> dict:
    """One CLI job; ``payload`` is the input document, or the argument
    list for a command that takes no input file."""
    return {"id": job_id, "command": command, "payload": payload, "check": check}


# -- simplicial families ---------------------------------------------------


def torus_complex(k: int) -> dict:
    """The k x k grid torus, each square cut along its main diagonal."""
    labels = [f"p{i}_{j}" for i in range(k) for j in range(k)]

    def at(i: int, j: int) -> int:
        return (i % k) * k + (j % k)

    tris = []
    for i in range(k):
        for j in range(k):
            tris.append([at(i, j), at(i + 1, j), at(i + 1, j + 1)])
            tris.append([at(i, j), at(i, j + 1), at(i + 1, j + 1)])
    return {"vertices": labels, "simplices": tris}


def sphere_complex(n: int) -> dict:
    """The boundary of the n-simplex, given by its facets."""
    return {
        "vertices": [f"v{i}" for i in range(n + 1)],
        "simplices": [list(f) for f in combinations(range(n + 1), n)],
    }


def torus_betti() -> list[int]:
    """Rational Betti numbers of the torus, in degrees 0..3."""
    return [1, 2, 1, 0]


def sphere_betti(n: int) -> list[int]:
    """Rational Betti numbers of the boundary of the n-simplex (a sphere
    of dimension n - 1), in degrees 0..n."""
    out = [0] * (n + 1)
    out[0] += 1
    out[n - 1] += 1
    return out


def _lifts_class(doc: dict, rng: random.Random):
    """A supported class for the pair in ``doc``, drawn the way the
    program's builtin suite draws one, or None."""
    from torloc import io as tio
    from torloc.suite import random_supported_class

    _, _, pair, _ = tio.parse_pair_input(doc)
    cls = random_supported_class(pair, rng)
    if cls is None:
        return None
    return {"degree": cls.degree, "coordinates": [str(c) for c in cls.coordinates]}


def _lifts_job(job_id: str, complex_doc: dict, n_vertices: int, closed: int,
               rng: random.Random) -> dict:
    while True:
        doc = {"complex": complex_doc,
               "closed_vertices": sorted(rng.sample(range(n_vertices), closed))}
        cls = _lifts_class(doc, rng)
        if cls is not None:
            break
    doc["class"] = cls
    return job(job_id, "lifts", doc, {"kind": "lifts", **cls})


def les_torus(rng: random.Random) -> list[dict]:
    jobs = []

    def les_job(job_id, complex_doc, n_vertices, closed, betti):
        doc = {"complex": complex_doc,
               "closed_vertices": sorted(rng.sample(range(n_vertices), closed))}
        jobs.append(job(job_id, "les", doc, {"kind": "les", "betti": betti}))

    # (n, les jobs, lifts jobs) on the boundary of the n-simplex
    for n, les_count, lifts_count in ((3, 36, 20), (4, 20, 12), (5, 6, 0)):
        for c in range(les_count):
            les_job(f"sphere{n}-les-{c}", sphere_complex(n), n + 1, 1 + c % n, sphere_betti(n))
        for c in range(lifts_count):
            jobs.append(_lifts_job(f"sphere{n}-lifts-{c}", sphere_complex(n), n + 1, 1 + c % n, rng))
    for c, closed in enumerate((1, 2, 3, 4)):
        les_job(f"torus3-les-{c}", torus_complex(3), 9, closed, torus_betti())
    for c, closed in enumerate((2, 3)):
        jobs.append(_lifts_job(f"torus3-lifts-{c}", torus_complex(3), 9, closed, rng))
    return jobs


# -- projective space, fixed-point integrals ---------------------------------


def projective_abbv(n: int, k: int | None, rng: random.Random) -> dict:
    """P^n under the diagonal torus, with the Euler class (k None) or the
    k-th power of the hyperplane class as integrand.

    The seed relabels the torus coordinates and reorders the fixed points;
    neither changes the integral.
    """
    r = n + 1
    var = list(range(r))
    rng.shuffle(var)
    order = list(range(r))
    rng.shuffle(order)
    comps = []
    for i in order:
        weights = []
        for j in range(r):
            if j != i:
                v = [0] * r
                v[var[j]] = 1
                v[var[i]] = -1
                weights.append(v)
        if k is None:
            restriction = "euler"
        else:
            # the hyperplane class restricts to -x_i at the i-th point
            e = [0] * r
            e[var[i]] = k
            restriction = {"poly": {",".join(map(str, e)): (-1) ** k}}
        comps.append({"algebra": "point", "weights": weights, "restriction": restriction})
    return {"num_vars": r, "components": comps}


def abbv_proj(rng: random.Random) -> list[dict]:
    jobs = []
    for n, copies in ((1, 15), (2, 12), (3, 4), (4, 1), (5, 1)):
        for c in range(copies):
            jobs.append(job(f"euler-p{n}-{c}", "abbv", projective_abbv(n, None, rng),
                            {"kind": "abbv-euler", "n": n}))
    for n, copies, ks in ((1, 15, (1, 2, 3)), (2, 6, (2, 3, 4)), (3, 1, (3, 4, 5)), (4, 1, (4,))):
        for c in range(copies):
            for k in ks:
                jobs.append(job(f"hyper-p{n}-k{k}-{c}", "abbv", projective_abbv(n, k, rng),
                                {"kind": "abbv-hyperplane", "n": n, "k": k}))
    return jobs


# -- projective space, K-theoretic Euler characteristics ----------------------


def projective_ktheory(n: int, d: int, rng: random.Random, span: int = 1) -> dict:
    """chi(P^n, O(d)) as a fixed-point sum along the one-parameter
    subgroup with weights span*(0..n) + shift.

    The seed draws the shift, which changes neither the value at t = 1
    nor the exponent spans the program works with, so the cost of a job
    does not depend on the seed.  The fixed points stay
    in weight order: the cost of the running sum depends on that order
    (eightfold on P^12).
    """
    shift = rng.randint(-3, 3)
    a = [span * i + shift for i in range(n + 1)]
    points = [
        {"fiber": {str(-d * ai): 1}, "conormal": [[ai - aj] for aj in a if aj != ai]}
        for ai in a
    ]
    return {"num_vars": 1, "points": points}


def ktheory_proj(rng: random.Random) -> list[dict]:
    jobs = []

    def add(job_id, n, d, span=1):
        jobs.append(job(job_id, "ktheory", projective_ktheory(n, d, rng, span),
                        {"kind": "ktheory", "n": n, "d": d}))

    # The twists are a fixed grid: the cost of a sum depends on d, so a
    # drawn d would move the latency percentiles from seed to seed.
    for n, twists in ((1, range(-1, 12)), (2, range(-2, 11)), (3, range(-3, 11)),
                      (4, range(-4, 11)), (5, range(-5, 11)), (6, range(-6, 7)),
                      (7, range(-7, 7, 2)), (8, (-8, -4, -1, 0, 3, 6))):
        for d in twists:
            add(f"p{n}-d{d}", n, d)
    add("p10-d-1", 10, -1)
    add("p10-d3", 10, 3)
    # P^1 with conormal weights +-W: the dense gcd scales with W
    for lo, hi in ((1000, 1500), (2000, 3000), (5000, 6000), (20000, 22000)):
        add(f"wide-w{lo}", 1, 0, rng.randint(lo, hi))
    return jobs


# -- many small jobs of every command ----------------------------------------


def _pair_doc(cx, z) -> dict:
    """The job input for a complex and closed-vertex selection, with the
    complex given by its facets."""
    simplices = cx.all_simplices()
    facets = [s for s in simplices
              if not any(len(t) > len(s) and set(s) <= set(t) for t in simplices)]
    return {"complex": {"vertices": list(cx.vertex_labels), "simplices": [list(s) for s in facets]},
            "closed_vertices": sorted(z.vertices)}


# Pairs per (band of 5 in simplex count: 0 for 1-5, ..., 5 for 26-30;
# dimension), in the proportions random_pair draws them (measured over
# 6000 draws).  Fixing the counts keeps the size mix, and so the latency
# percentiles, the same for every seed.
PAIR_QUOTAS = {
    (0, 0): 70, (0, 1): 58, (1, 0): 3, (1, 1): 12, (1, 2): 57, (2, 2): 15,
    (2, 3): 27, (3, 2): 2, (3, 3): 30, (4, 3): 17, (5, 3): 9,
}


def small_mixed(rng: random.Random, datasets_dir: str) -> list[dict]:
    from torloc.suite import random_pair, random_supported_class

    jobs = []
    left = dict(PAIR_QUOTAS)
    c = 0
    while any(left.values()):
        cx, z, pair = random_pair(rng)
        cell = ((cx.simplex_count() - 1) // 5, cx.dimension())
        if not left.get(cell):
            continue
        left[cell] -= 1
        doc = _pair_doc(cx, z)
        jobs.append(job(f"pair-{c}-les", "les", doc, {"kind": "les"}))
        cls = random_supported_class(pair, rng)
        if cls is not None:
            cls_doc = {"degree": cls.degree, "coordinates": [str(x) for x in cls.coordinates]}
            jobs.append(job(f"pair-{c}-lifts", "lifts", {**doc, "class": cls_doc},
                            {"kind": "lifts", **cls_doc}))
        c += 1
    for name, command, check in BUNDLED:
        with open(os.path.join(datasets_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        jobs.append(job(f"bundled-{command}-{name[:-5]}", command, doc, check))
    for n in range(1, 5):
        for c in range(4):
            d = rng.randint(-n, 4)
            jobs.append(job(f"chi-p{n}-{c}", "ktheory", projective_ktheory(n, d, rng),
                            {"kind": "ktheory", "n": n, "d": d}))
    jobs.append(job("verify", "verify", ["--seed", str(rng.randint(0, 10**6))], {"kind": "verify"}))
    return jobs


def generate(workload: str, seed: int, datasets_dir: str) -> list[dict]:
    """The job list of one workload; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "les-torus":
        return les_torus(rng)
    if workload == "abbv-proj":
        return abbv_proj(rng)
    if workload == "ktheory-proj":
        return ktheory_proj(rng)
    if workload == "small-mixed":
        return small_mixed(rng, datasets_dir)
    raise ValueError(f"unknown workload {workload!r}")


def smallest_job(jobs: list[dict]) -> dict:
    """The job the cold-start measurement runs: the smallest input file."""
    with_input = [j for j in jobs if isinstance(j["payload"], dict)]
    return min(with_input, key=lambda j: len(json.dumps(j["payload"])))


def materialize(jobs: list[dict], directory: str) -> list[dict]:
    """Write each job's input file and return the manifest entries, whose
    ``argv`` is what the program is called with."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for j in jobs:
        if isinstance(j["payload"], dict):
            path = os.path.join(directory, j["id"] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(j["payload"], fh, indent=1)
            argv = [j["command"], "--input", path]
        else:
            argv = [j["command"], *j["payload"]]
        out.append({"id": j["id"], "argv": argv, "check": j["check"]})
    return out
