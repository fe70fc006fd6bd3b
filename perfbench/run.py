"""torloc benchmark: seeded CLI workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload les-torus --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The command generates (and caches) the workload's
jobs, runs the passes and the cold starts of ``python -m torloc`` in a
child process (worker.py), checks every report, and prints one line per
metric followed by a JSON summary as the last line.
With ``--trace 1`` the metrics are the per-layer ones instead.  README.md
in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
# Time of worker.probe on the reference host (2-core Xeon VM, CPython
# 3.11.7) in a quiet period.  The host's speed drifts by up to 2x for tens
# of seconds at a time, so every end-to-end time is scaled by host_speed().
REFERENCE_PROBE_S = 0.006
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    """Environment of every child interpreter: the checkout's sources, and
    bytecode cached inside the benchmark's own cache directory."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = os.path.join(CACHE, "pycache")
    return env


def prepare(workload: str, seed: int) -> dict:
    """The workload's manifest, generated once per seed and then reused."""
    from workloads import generate, materialize, smallest_job

    directory = os.path.join(CACHE, f"{workload}-seed{seed}")
    path = os.path.join(directory, "manifest.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    jobs = generate(workload, seed, os.path.join(SRC, "torloc", "datasets"))
    manifest = {
        "workload": workload,
        "seed": seed,
        "jobs": materialize(jobs, directory),
        "smallest": smallest_job(jobs)["id"],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    os.replace(tmp, path)
    return manifest


def run_worker(manifest: dict, seconds: float, trace: bool) -> dict:
    directory = os.path.join(CACHE, f"{manifest['workload']}-seed{manifest['seed']}")
    manifest_path = os.path.join(directory, "manifest.json")
    result_path = os.path.join(directory, f"result-trace{int(trace)}.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), manifest_path, str(seconds),
         "1" if trace else "0", result_path],
        cwd=ROOT, env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
    )
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def load_golden(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def judge(manifest: dict, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every job execution and cold start."""
    from checks import check_report

    golden = load_golden(manifest["workload"], manifest["seed"])
    attempted = failed = 0
    reasons = []
    for job in manifest["jobs"]:
        rec = result["outputs"][job["id"]]
        runs = len(rec["codes"])
        attempted += runs
        reason = None
        if rec["errors"]:
            reason = rec["errors"][0]
        elif any(c != 0 for c in rec["codes"]):
            reason = f"exit codes {sorted(set(map(str, rec['codes'])))}"
        else:
            reason = check_report(job["check"], rec["codes"][0], rec["stdout"])
        if reason is None and golden and golden.get(job["id"]) != rec["digests"][0]:
            reason = "stdout digest differs from the recorded one"
        if reason is not None:
            failed += runs
            reasons.append(f"{job['id']}: {reason}")
            continue
        bad = sum(1 for d, c in zip(rec["digests"], rec["codes"])
                  if d != rec["digests"][0] or c != rec["codes"][0])
        if bad:
            failed += bad
            reasons.append(f"{job['id']}: stdout or exit code changed between passes")
    smallest = result["outputs"][manifest["smallest"]]
    for _, code, stdout in result["cold_starts"]:
        attempted += 1
        if code != smallest["codes"][0] or stdout != smallest["stdout"]:
            failed += 1
            reasons.append(f"{manifest['smallest']}: cold start differs from the in-process run")
    return attempted, failed, reasons


def host_speed(probe_s: list[float], passes: int) -> float:
    """REFERENCE_PROBE_S over the run's probe time at the quantile that the
    fastest of ``passes`` executions of a job reaches, 1/(passes + 1).

    Each job counts at its fastest of the passes; the probe is read at the
    same quantile, so that both sides see the host in the same state.
    """
    from worker import quantile

    return REFERENCE_PROBE_S / quantile(probe_s, passes)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from worker import best_pass, best_times

    manifest = prepare(workload, seed)
    result = run_worker(manifest, seconds, trace)
    attempted, failed, reasons = judge(manifest, result)
    speed = host_speed(result["probe_s"], len(result["pass_s"]))
    setup_times = [seconds for seconds, _, _ in result["cold_starts"]]
    best = best_times(result["job_s"])
    summary = {
        "workload": workload,
        "seed": seed,
        "jobs": len(manifest["jobs"]),
        "passes": len(result["pass_s"]),
        "samples": len(best),
        "speed": speed,
        "raw_run_s": best_pass(result["job_s"]),
        "cold_starts": len(setup_times),
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
    }
    if trace:
        summary["metrics"] = dict(result["trace"]["metrics"])
        summary["traced_passes"] = result["trace"]["traced_passes"]
        summary["missing"] = result["trace"]["missing"]
        summary["stage_self_s"] = result["trace"]["stage_self_s"]
    else:
        summary["metrics"] = {
            "setup_s": speed * statistics.median(setup_times),
            "run_s": speed * best_pass(result["job_s"]),
            "job_p50_s": speed * statistics.median(best),
            "job_p90_s": speed * statistics.quantiles(best, n=10)[-1],
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
    return summary


def print_summary(s: dict, trace: bool) -> None:
    print(f"workload {s['workload']} seed {s['seed']}: {s['jobs']} jobs a pass, "
          f"{s['passes']} untraced passes, {s['cold_starts']} cold starts")
    if trace:
        print(f"  traced passes: {s['traced_passes']}; not traced (absent): {s['missing'] or 'none'}")
        for name, value in s["metrics"].items():
            print(f"  {name:34s} {value:.6g}")
        top = sorted(s["stage_self_s"].items(), key=lambda kv: -kv[1])[:5]
        print("  largest self time (last traced pass): "
              + ", ".join(f"{k} {v:.4f} s" for k, v in top))
    else:
        m = s["metrics"]
        print(f"  host speed  {s['speed']:.4f}   times below are scaled by it "
              f"(unscaled run_s {s['raw_run_s']:.4f} s)")
        print(f"  setup_s     {m['setup_s']:.4f} s   median of {s['cold_starts']} cold starts")
        print(f"  run_s       {m['run_s']:.4f} s   one pass, each job at its best of {s['passes']}")
        print(f"  job_p50_s   {m['job_p50_s']:.5f} s  over {s['samples']} jobs, each at its best")
        print(f"  job_p90_s   {m['job_p90_s']:.5f} s  over {s['samples']} jobs, each at its best")
        print(f"  peak_rss_mb {m['peak_rss_mb']:.2f} MB")
    print(f"  fail_frac   {s['failed'] / s['attempted']:.4g}  ({s['failed']} of {s['attempted']})")
    for reason in s["reasons"][:20]:
        print(f"  FAILED {reason}")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "torloc", "cli.py")):
        print(f"error: no torloc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [run_workload(w, args.seed, args.seconds, trace) for w in names]
    for s in summaries:
        print_summary(s, trace)
    units = None if trace else END_TO_END_UNITS
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "/"
        for name, value in s["metrics"].items():
            unit = units[name] if units else per_layer_unit(name)
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
