"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 [--workload les-torus ...] [--out FILE]

Runs ``run.py`` once per seed (1, 2, ...) and workload, one run at a time, and reports
for each metric the median and the distance between the first and third
quartiles as a share of the median, as ``statistics.quantiles(values,
n=4)`` gives them.  BENCHMARK.json's bounds were set from this spread.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "sympy": importlib.metadata.version("sympy"),
                    "gmpy2": importlib.util.find_spec("gmpy2") is not None,
                    "platform": platform.platform()},
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in report["seeds"]:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            ).stdout
            last = json.loads(out.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": last["correct"], "attempted": last["attempted"],
                         "failed": last["failed"]})
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_frac": spread,
                             "bound": bounds.get(name), "values": vals}
            flag = "" if bounds.get(name) is None or spread < bounds[name] / 3 else "  WIDE"
            print(f"{workload:13s} {name:12s} median {med:.5g}  iqr/median {spread:.4f}"
                  f"  bound {bounds.get(name)}{flag}", flush=True)
        report["workloads"][workload] = {"metrics": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
