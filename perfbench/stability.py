"""Run the benchmark over several seeds and check that it is steady.

    python3 perfbench/stability.py --workload pc-episodic --seeds 1 2 3 4 5 --out a.json
    python3 perfbench/stability.py --compare a.json b.json

For each end-to-end metric of BENCHMARK.json this prints the median of the
runs and the spread, the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, against the
metric's bound. --rerun N runs the first N seeds a second time and requires
the determinism digests to match. --compare checks that the second set's
median of every metric is no worse than the first's by more than its bound.
Runs go one at a time; each is a separate process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace=0) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    return {"seed": seed, "result": result, "digest": report["digest"], "report": report}


def spread(values) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def summarize(runs, metrics) -> tuple[dict, list[str]]:
    rows, problems = {}, []
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med, spr = spread(values)
        rows[m["name"]] = {"median": med, "spread": spr, "bound": m["bound"], "values": values}
        if m["name"] != "setup_s" and spr > m["bound"]:
            problems.append(f"{m['name']}: spread {spr:.3f} > bound {m['bound']}")
    for r in runs:
        if not r["result"]["correct"] or r["result"]["failed"]:
            problems.append(f"seed {r['seed']}: correct={r['result']['correct']} "
                            f"failed={r['result']['failed']} {r['report']['failures']}")
    return rows, problems


def worse_by(first, second, better) -> float:
    """How much worse second is than first, as a share of first."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=float)
    p.add_argument("--rerun", type=int, default=0, help="rerun the first N seeds, compare digests")
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", type=Path, nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)
    spec = load_spec()
    metrics = spec["end_to_end"]

    if args.compare:
        first, second = (json.loads(f.read_text())["summary"] for f in args.compare)
        bad = 0
        for m in metrics:
            a, b = first[m["name"]]["median"], second[m["name"]]["median"]
            w = worse_by(a, b, m["better"])
            flag = "WORSE" if w > m["bound"] else "ok"
            bad += flag != "ok"
            print(f"{m['name']:14s} {a:<12.6g} {b:<12.6g} worse by {w:+.4f} (bound {m['bound']}) {flag}")
        return 1 if bad else 0

    if not args.workload:
        p.error("--workload is required unless --compare is given")
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["result"]["metrics"].items()), flush=True)
    rows, problems = summarize(runs, metrics)
    for seed in args.seeds[: args.rerun]:
        again = run_once(args.workload, seed, seconds)
        first = next(r for r in runs if r["seed"] == seed)
        if again["digest"] != first["digest"]:
            problems.append(f"seed {seed}: digest {first['digest']} then {again['digest']}")
        print(f"seed {seed} rerun: digest {'same' if again['digest'] == first['digest'] else 'DIFFERS'}")
    for name, row in rows.items():
        mark = "ok" if row["spread"] <= row["bound"] / 3 else "WIDE" if row["spread"] <= row["bound"] else "OVER"
        print(f"{name:14s} median {row['median']:<12.6g} spread {row['spread']:.4f} bound {row['bound']} {mark}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "summary": rows,
                                        "runs": runs, "problems": problems}, indent=1))
    for line in problems:
        print("PROBLEM", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
