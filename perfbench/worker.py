"""Child process that runs one workload's jobs in-process and times them.

Usage: python3 worker.py MANIFEST SECONDS TRACE RESULT

Each job goes through ``torloc.cli.main``, the function behind the console
script, with stdout captured.  After a warm-up job per command, passes
over the whole job list repeat until the next pass would end after
SECONDS.  After each untraced pass one cold start of
``python -m torloc`` on the manifest's smallest job is timed, so the cold
starts sample the whole run rather than one moment of it.

With TRACE 1 the time is split: untraced passes first, then traced passes
(see tracer.py), which give the per-layer metrics and the tracing
overhead.  The result file holds every timing, every exit code and stdout
digest, the first stdout of each job, the cold starts, and this process's
peak RSS, read before any tracing.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

MIN_COLD_STARTS = 5
# A probe runs between jobs whenever this long has passed since the last.
PROBE_EVERY_S = 0.25


def probe():
    """Fixed pure-Python work in the program's style (exact Gauss-Jordan on
    Fractions, a dict-based polynomial product) that does not depend on
    the program.  Its times in a run gauge how fast the host ran that
    run; see run.host_speed."""
    rows = [[Fraction((i * j) % 7 - 3, 1 + (i + 2 * j) % 5) for j in range(11)]
            for i in range(9)]
    r = 0
    for c in range(11):
        hit = next((i for i in range(r, 9) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(9):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == 9:
            break
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    square: dict = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            square[e] = square.get(e, 0) + c1 * c2
    return rows, square


def run_job(cli, argv):
    """(exit code or None, stdout, seconds, error); an exception is a
    failed job, not a crash of the benchmark.

    sympy memoizes expressions across calls.  A console-script run starts
    with that cache empty, so it is emptied before each job: otherwise a
    job's time would depend on which jobs ran before it in this process.
    """
    sympy_cache = sys.modules.get("sympy.core.cache")
    if sympy_cache is not None:
        sympy_cache.clear_cache()
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - recorded as a failed job
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start, error


def cold_start(argv):
    """(seconds, exit code, stdout) of a fresh ``python -m torloc`` run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "torloc", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start, proc.returncode, proc.stdout.decode("utf-8", "replace")


class Runner:
    def __init__(self, cli, jobs):
        self.cli = cli
        self.jobs = jobs
        self.outputs = {j["id"]: {"codes": [], "digests": [], "stdout": None, "errors": []}
                        for j in jobs}
        self.probe_s: list[float] = []

    def one_pass(self):
        """Run every job once, with probes in between; returns the pass
        time (probes included) and each job's time."""
        gc.collect()
        times = []
        start = last_probe = time.perf_counter()
        for j in self.jobs:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                last_probe = time.perf_counter()
                probe()
                self.probe_s.append(time.perf_counter() - last_probe)
            code, stdout, seconds, error = run_job(self.cli, j["argv"])
            rec = self.outputs[j["id"]]
            rec["codes"].append(code)
            rec["digests"].append(hashlib.sha256(stdout.encode("utf-8")).hexdigest())
            if rec["stdout"] is None:
                rec["stdout"] = stdout
            if error is not None:
                rec["errors"].append(error)
            times.append(seconds)
        return time.perf_counter() - start, times

    def passes(self, seconds, between):
        """Whole passes until the next one would end after ``seconds``;
        ``between`` runs after each pass, inside the time budget."""
        pass_s, job_s = [], []
        begin = time.perf_counter()
        while True:
            elapsed, times = self.one_pass()
            pass_s.append(elapsed)
            job_s.append(times)
            between()
            if time.perf_counter() - begin + statistics.median(pass_s) > seconds:
                return pass_s, job_s


def main(argv):
    manifest_path, seconds, trace, result_path = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    from torloc import cli

    jobs = manifest["jobs"]
    smallest = next(j["argv"] for j in jobs if j["id"] == manifest["smallest"])
    runner = Runner(cli, jobs)
    warm = {}
    for j in jobs:
        warm.setdefault(j["argv"][0], j)
    for j in warm.values():
        run_job(cli, j["argv"])
    cold_start(smallest)  # fills the bytecode cache; not timed
    colds = []

    pass_s, job_s = runner.passes(seconds / 2 if trace else seconds,
                                  between=lambda: colds.append(cold_start(smallest)))
    while len(colds) < MIN_COLD_STARTS:
        colds.append(cold_start(smallest))
    result = {
        "pass_s": pass_s,
        "job_s": job_s,
        "probe_s": runner.probe_s,
        "cold_starts": colds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        untraced_probe_s = runner.probe_s
        runner.probe_s = []
        per_pass, traced_job_s = [], []
        begin = time.perf_counter()
        tracer.install()
        try:
            while True:
                tracer.reset()
                elapsed, times = runner.one_pass()
                traced_job_s.append(times)
                per_pass.append(layer_metrics(tracer, tracer.stage_self_times()))
                if time.perf_counter() - begin + elapsed > seconds / 2:
                    break
        finally:
            tracer.uninstall()
        layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        # each phase at the host speed its own probes saw
        layers["trace.overhead_frac"] = (
            best_pass(traced_job_s) / quantile(runner.probe_s, len(traced_job_s))
        ) / (best_pass(job_s) / quantile(untraced_probe_s, len(job_s))) - 1
        result["trace"] = {
            "metrics": layers,
            "traced_passes": len(traced_job_s),
            "missing": tracer.missing,
            "stage_self_s": tracer.stage_self_times(),
        }
        with open(result_path + ".spans", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result["outputs"] = runner.outputs
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def quantile(probe_s, passes):
    """The probe time at quantile 1/(passes + 1), where the fastest of
    ``passes`` executions of a job lies."""
    ordered = sorted(probe_s)
    return ordered[len(ordered) // (passes + 1)]


def best_times(job_s):
    """Each job's fastest time over the passes (rows are passes)."""
    return [min(column) for column in zip(*job_s)]


def best_pass(job_s):
    """A pass with every job at its fastest: the sum of the best times."""
    return sum(best_times(job_s))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
