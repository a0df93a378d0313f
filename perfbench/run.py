"""pcmem benchmark: one workload, one single-threaded process.

    python3 perfbench/run.py --workload pc-episodic --seed 1 --seconds 10 --trace 0

Builds its inputs from --seed (the synthetic corpus), sets up three times
(set-up time is the import plus the median set-up), then repeats the
workload's timed pass until --seconds have gone by and reports medians.
With --trace 0 the last line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run. See perfbench/README.md.
"""

import os

# Single-threaded BLAS is the reference mode (the one pcmem promises to be
# bit-deterministic in); it has to be set before NumPy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3

WORKLOADS = ("pc-episodic", "ipc-semantic", "memory-recall")

# Metrics of the result line; every one must exist on every workload.
# Times are process CPU time (see workloads.Ops): steal on a shared virtual
# machine moves wall time by 10% from run to run. images_per_cpu_s is the
# throughput of the workload's fixed-work op (HEADLINE): train() on the
# training workloads; evaluate_errors on memory-recall, whose recall and
# replay stop on a tolerance, so their cost moves with the seed's model and
# shows in cpu_s instead.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "images_per_cpu_s": "images/s",
    "val_input_energy": "energy",
}
HEADLINE = {
    "pc-episodic": "train_images_per_s",
    "ipc-semantic": "train_images_per_s",
    "memory-recall": "eval_images_per_s",
}
# Every end-to-end metric the report prints, with its unit. All are CPU
# time but wall_s, the pass's wall time.
REPORT_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "failed_op_ratio": "failed/attempted",
    "train_images_per_s": "images/s",
    "val_input_energy": "energy",
    "eval_images_per_s": "images/s",
    "reconstruct_images_per_s": "images/s",
    "recall_images_per_s": "images/s",
    "recall_masked_mse": "mse",
    "replay_ms_p50": "ms",
}

_CORE = ("compute_errors", "inference_gradients", "learning_gradients",
         "activation_eval", "free_energy", "inference_step")
PER_LAYER = {
    **{f"core.{f}.{s}": u for f in _CORE for s, u in (("calls", "count"), ("self_s", "s"))},
    "core.matmul_gflop": "GFLOP",
    "core.matmul_gflop_per_s": "GFLOP/s",
    "core.errors_per_step": "calls/step",
    "optim.adam_step.calls": "count",
    "optim.adam_step.self_s": "s",
    "experiments.train.self_s": "s",
    "experiments.evaluate_errors.self_s": "s",
    "experiments.run_recall_suite.self_s": "s",
    "memory.recall.calls": "count",
    "memory.recall.self_s": "s",
    "memory.recall.iterations": "count",
    "memory.recall.us_per_iter": "us",
    **{f"memory.{f}.{s}": u for f in ("replay", "regenerate", "infer_latents", "reconstruct")
       for s, u in (("calls", "count"), ("self_s", "s"))},
    "data.load_raw.self_s": "s",
    "data.build_splits.self_s": "s",
    "checkpoint.save_checkpoint.self_s": "s",
    "checkpoint.load_checkpoint.self_s": "s",
    "synthetic.write_corpus.self_s": "s",
    "trace.overhead_s": "s",
}
NO_WAIT = "none: every layer runs on one thread with no queues, so no span waits"
NOT_TRACED = "single matmuls are not timed: that needs spans inside pcmem"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed, np):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def quartiles(values):
    values = list(values)
    if len(values) < 2:
        return {"n": len(values), "q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def layer_values(snap, targets):
    """Per-layer figures of one traced set-up or pass."""
    out = {}
    for t in targets:
        out[f"{t.name}.calls"] = snap[t.name].calls
        out[f"{t.name}.self_s"] = snap[t.name].self_s
    flops = sum(s.flops for s in snap.values())
    flop_self = sum(snap[t.name].self_s for t in targets if t.flops is not None)
    out["core.matmul_gflop"] = flops / 1e9
    out["core.matmul_gflop_per_s"] = flops / 1e9 / flop_self if flop_self > 0 else 0.0
    steps = snap["core.inference_gradients"].calls
    out["core.errors_per_step"] = snap["core.compute_errors"].calls / steps if steps else 0.0
    recall = snap["memory.recall"]
    out["memory.recall.iterations"] = recall.iterations
    out["memory.recall.us_per_iter"] = 1e6 * recall.total_s / recall.iterations if recall.iterations else 0.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pcmem" / "__init__.py").is_file():
        print(f"perfbench: no pcmem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.process_time()
    import numpy as np
    import workloads as wl
    import_s = time.process_time() - t0
    if not Path(wl.pcmem.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: pcmem imported from {wl.pcmem.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer("pcmem", wl.TRACE_TARGETS)
        tracer.install()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    ops = wl.Ops()
    setup_s, setup_wall_s, setup_digests, setup_snaps, setup_corpus_s = [], [], [], [], []
    passes, traced, pass_snaps = [], [], []
    run_pass = wl.PASSES[args.workload]

    def timed_pass():
        w0, c0 = ops.wall_s, ops.cpu_s
        result = run_pass(fixture, ops)
        result.wall_s, result.cpu_s = ops.wall_s - w0, ops.cpu_s - c0
        return result

    try:
        fixture = None
        for _ in range(SETUP_REPEATS):
            if tracer:
                tracer.reset()
            fixture = None  # let the previous set-up's data go first
            w0, c0 = ops.wall_s, ops.cpu_s
            fixture = wl.setup(args.workload, args.seed, workdir, ops)
            setup_s.append(ops.cpu_s - c0)
            setup_wall_s.append(ops.wall_s - w0)
            setup_digests.append(fixture.digest)
            if tracer:
                setup_snaps.append(tracer.snapshot())
                setup_corpus_s.append(fixture.corpus_s)
        ops.expect_equal("set-up reproducibility", setup_digests)

        start = time.perf_counter()
        while True:
            if tracer:
                tracer.uninstall()
            passes.append(timed_pass())
            if tracer:
                tracer.install()
                tracer.reset()
                traced.append(timed_pass())
                pass_snaps.append(tracer.snapshot())
            if time.perf_counter() - start >= args.seconds:
                break
    except wl.OpFailed:
        pass
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    digests = [p.digest for p in passes + traced]
    if digests:
        ops.expect_equal("pass determinism digest", digests)

    failed = len(ops.failures)
    report = {
        "workload": args.workload,
        "environment": environment(args.seed, np),
        "failures": ops.failures,
        "wait_time": NO_WAIT,
    }
    if len(setup_s) < SETUP_REPEATS or not passes or (tracer and not traced):
        print(json.dumps({"report": report}))
        print("perfbench: set-up or the first pass failed:", *ops.failures, sep="\n  ", file=sys.stderr)
        return 1

    med = statistics.median
    values = {
        "setup_s": import_s + med(setup_s),
        "wall_s": med(p.wall_s for p in passes),
        "cpu_s": med(p.cpu_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_op_ratio": failed / ops.attempted,
    }
    spread = {
        "setup_s": quartiles(setup_s),
        "setup_wall_s": quartiles(setup_wall_s),
        "wall_s": quartiles(p.wall_s for p in passes),
        "cpu_s": quartiles(p.cpu_s for p in passes),
    }
    for key in passes[0].values:
        spread[key] = quartiles(p.values[key] for p in passes)
        values[key] = spread[key]["median"]
    for key in passes[0].samples:
        spread[key] = quartiles(x for p in passes for x in p.samples[key])
        values[key] = spread[key]["median"]
    report.update(
        digest=digests[0],
        setup_digest=setup_digests[0],
        samples={"setup_repeats": len(setup_s), "passes": len(passes), "traced_passes": len(traced)},
        import_s=import_s,
        spread=spread,
        metrics={k: {"value": values[k], "unit": u} for k, u in REPORT_UNITS.items() if k in values},
    )

    if tracer:
        layers = {}
        setup_rows = [layer_values(s, wl.TRACE_TARGETS) for s in setup_snaps]
        for row, corpus_s in zip(setup_rows, setup_corpus_s):
            row["synthetic.write_corpus.self_s"] = corpus_s
        pass_rows = [layer_values(s, wl.TRACE_TARGETS) for s in pass_snaps]
        for name in PER_LAYER:
            rows = setup_rows if name.startswith(wl.SETUP_LAYERS) else pass_rows
            if name in rows[0]:
                layers[name] = med(r[name] for r in rows)
        layers["trace.overhead_s"] = med(p.cpu_s for p in traced) - values["cpu_s"]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        report.update(
            tracer={"missing": tracer.missing, "counter_errors": tracer.counter_errors,
                    "matmuls": NOT_TRACED, "matmul_gflop": "computed from call shapes"},
        )
    else:
        values["images_per_cpu_s"] = values[HEADLINE[args.workload]]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    shown = dict(report["metrics"], **metrics) if tracer else report["metrics"]
    for k, m in shown.items():
        print(f"{k:36s} {m['value']:<14.6g} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": ops.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
