"""The three pcmem workloads: set-up, one timed pass, and output checks.

Only pcmem's public API is driven here. Every call into pcmem goes through
``Ops.run``, which times the call alone, checks its output with plain NumPy
(never through a pcmem function, so checks add nothing to a traced run) and
counts it as attempted and, if it raises or fails its check, as failed.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import pcmem
import pcmem.checkpoint

from tracer import Target

# pc-episodic: exp1 for a fixed number of epochs. 250 keeps the preset's
# val_every=250 cadence: validation runs at epochs 1 and 250.
PC_EPOCHS = 250
# ipc-semantic: exp2 on the full training set. Two epochs, so that the
# last epoch's energy can be checked against the first's.
IPC_EPOCHS = 2
# memory-recall set-up: a short exp1 run. At twenty times the preset's Adam
# rate, 50 epochs memorise the batch well enough that recall leaves about
# half the zero-filled presentation's error; at the preset rate that takes
# several hundred epochs, too long to repeat set-up three times a run.
RECALL_MODEL_EPOCHS = 50
RECALL_MODEL_BETA = 2e-3
RECALL_IMAGES = 10
REPLAY_BATCHES = 4
REPLAY_BATCH = 64
# Calls per pass of each short memory-recall op (reconstruct, and
# evaluate_errors on validation and on test). One call (about 0.8 s) varies
# by 10% or more from call to call on a shared host; the median of several
# is steadier.
SHORT_OP_REPEATS = 3
# Replay must land on the model's top-down manifold theta1 f(theta2 phi3).
# regenerate stops at |xi2|_inf < 1e-6, and replayed images measure about
# 1e-6 off it; an image that was not replayed is off by about 1.
REPLAY_MANIFOLD_TOL = 1e-4

SPLIT_SIZES = (10097, 2010, 2010)


def _cpu_time() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class OpFailed(Exception):
    """An op raised or failed its output check; the pass cannot go on."""


@dataclass
class Ops:
    """Attempted/failed accounting and timing for every call into pcmem.

    Each call is timed by wall clock and by CPU time, its own process's
    plus that of any child process it waited for. The run is
    single-threaded, so CPU time is the wall time minus the time the
    process was not running, e.g. while a virtual machine's CPU was taken
    by its host (steal); timings that feed the result line use CPU time.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0  # totals over every call so far
    cpu_s: float = 0.0

    def run(self, name, fn, check=None):
        """Call fn(); return (result, CPU seconds). Raises OpFailed on failure."""
        self.attempted += 1
        w0, c0 = time.perf_counter(), _cpu_time()
        try:
            result = fn()
        except Exception as exc:  # any failure of the program is a failed op
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        cpu = _cpu_time() - c0
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += cpu
        problem = check(result) if check is not None else None
        if problem:
            self.failures.append(f"{name}: {problem}")
            raise OpFailed(name)
        return result, cpu

    def expect_equal(self, name, values) -> None:
        """Count one check that every value in the list is the same."""
        self.attempted += 1
        if len(set(values)) > 1:
            self.failures.append(f"{name}: {len(set(values))} distinct values {values}")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- checks


def _finite(name, a):
    return None if np.all(np.isfinite(a)) else f"{name} has non-finite values"


def check_train(result):
    rows = result.log.rows
    if not rows:
        return "empty TrainLog"
    train_e = np.array([r.train_energies for r in rows])
    problem = _finite("train energies", train_e) or _finite("val energies", rows[-1].val_energies)
    if problem:
        return problem
    if len(rows) > 1 and not train_e[-1, 0] < train_e[0, 0]:
        return f"last-epoch e1 {train_e[-1, 0]!r} not below first-epoch e1 {train_e[0, 0]!r}"
    return None


def check_splits(splits):
    sizes = (len(splits.train), len(splits.validation), len(splits.test))
    if sizes != SPLIT_SIZES:
        return f"split sizes {sizes} != {SPLIT_SIZES}"
    return _finite("train images", splits.train.images)


def zero_fill_mse(originals, mask):
    hidden = originals[:, mask.hidden]
    return float(np.mean(hidden * hidden))


def check_recall(suite, mask):
    visible = mask.visible
    if not np.array_equal(suite.recalled[:, visible], suite.presented[:, visible]):
        return "visible pixels of a recall differ from the presented image"
    problem = _finite("recalled images", suite.recalled)
    if problem:
        return problem
    baseline = zero_fill_mse(suite.originals, mask)
    if not suite.mean_mse < baseline:
        return f"recall masked MSE {suite.mean_mse!r} not below zero-filled {baseline!r}"
    return None


def replay_manifold_error(params, images) -> float:
    """Max |images - theta1 f(theta2 phi3)| over the phi3 that explains them.

    phi2 is recovered from images = phi2 theta1^T by least squares (theta1
    has full column rank), then phi3 from f^-1(phi2) = phi3 theta2^T.
    """
    theta1, theta2 = params.theta1, params.theta2
    phi2 = np.linalg.lstsq(theta1, images.T, rcond=None)[0].T
    tanh = params.activation.value == "tanh"
    if tanh:
        if np.any(np.abs(phi2) >= 1.0):
            return float("inf")
        pre = np.arctanh(phi2)
    else:
        pre = phi2
    phi3 = np.linalg.lstsq(theta2, pre.T, rcond=None)[0].T
    pred = phi3 @ theta2.T
    if tanh:
        pred = np.tanh(pred)
    return float(np.max(np.abs(pred @ theta1.T - images)))


def check_replay(params, images, batch):
    if images.shape != (batch, params.dims[0]):
        return f"replay output shape {images.shape}"
    problem = _finite("replay output", images)
    if problem:
        return problem
    err = replay_manifold_error(params, images)
    if not err <= REPLAY_MANIFOLD_TOL:
        return f"replay off the top-down manifold by {err:.3g} > {REPLAY_MANIFOLD_TOL}"
    return None


def check_array(name, shape):
    def check(a):
        if a.shape != shape:
            return f"{name} shape {a.shape} != {shape}"
        return _finite(name, a)

    return check


# ---------------------------------------------------------------- set-up

_WRITE_CORPUS = """
import sys, time
sys.path.insert(0, sys.argv[1])
from pcmem.synthetic import write_corpus
t0 = time.perf_counter()
write_corpus(sys.argv[2], seed=int(sys.argv[3]))
print(time.perf_counter() - t0)
"""


def write_corpus(data_dir: Path, seed: int) -> float:
    """Write the synthetic corpus from a child process; returns the seconds
    write_corpus itself took.

    Rendering the corpus peaks at about 1.2 GB, far above anything the
    workloads use. Users generate the corpus once, apart from the runs that
    read it; a child process does the same here, so that the benchmark's
    own peak RSS measures loading and the workload.
    """
    src = str(Path(pcmem.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _WRITE_CORPUS, src, str(data_dir), str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"write_corpus exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class Fixture:
    """What set-up leaves for the timed passes."""

    splits: object
    corpus_s: float  # write_corpus's own time, measured in its process
    params: object = None
    digest: str = ""


def setup(workload: str, seed: int, workdir: Path, ops: Ops) -> Fixture:
    """One full set-up. Its time is the wall time of the ops (Ops.wall_s)."""
    data_dir = workdir / "corpus"
    try:
        corpus_s, _ = ops.run("synthetic.write_corpus", lambda: write_corpus(data_dir, seed))
        raw, _ = ops.run("data.load_raw", lambda: pcmem.load_raw(data_dir))
        splits, _ = ops.run("data.build_splits", lambda: pcmem.build_splits(*raw), check_splits)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    fixture = Fixture(splits=splits, corpus_s=corpus_s)
    arrays = [splits.train.images, splits.validation.images, splits.test.images]
    if workload == "memory-recall":
        config = replace(
            pcmem.preset("exp1"), max_epochs=RECALL_MODEL_EPOCHS, beta=RECALL_MODEL_BETA
        )
        result, _ = ops.run("experiments.train", lambda: pcmem.train(config, splits), check_train)
        path = workdir / "model.pcn"
        manifest = pcmem.checkpoint.RunManifest(config=config.to_dict())
        ops.run(
            "checkpoint.save_checkpoint",
            lambda: pcmem.checkpoint.save_checkpoint(
                path, result.params, (result.adam1, result.adam2), manifest
            ),
        )

        def same_weights(loaded):
            p = loaded[0]
            if not (np.array_equal(p.theta1, result.params.theta1)
                    and np.array_equal(p.theta2, result.params.theta2)):
                return "reloaded weights differ from the trained ones"
            return None

        loaded, _ = ops.run(
            "checkpoint.load_checkpoint", lambda: pcmem.checkpoint.load_checkpoint(path), same_weights
        )
        path.unlink()
        fixture.params = loaded[0]
        arrays += [fixture.params.theta1, fixture.params.theta2]
    fixture.digest = digest(*arrays)
    return fixture


# ---------------------------------------------------------------- timed pass


@dataclass
class PassResult:
    values: dict  # per-pass quantities, by the names the report uses
    samples: dict  # per-call samples; the report gives their median
    digest: str
    wall_s: float = 0.0  # time in pcmem calls, set by the caller from Ops totals
    cpu_s: float = 0.0


def _train_pass(config, n_images, fixture, ops) -> PassResult:
    result, s = ops.run("experiments.train", lambda: pcmem.train(config, fixture.splits), check_train)
    epochs = len(result.log.rows)
    return PassResult(
        values={
            "train_images_per_s": epochs * n_images / s,
            "val_input_energy": float(result.log.rows[-1].val_energies[0]),
        },
        samples={},
        digest=digest(result.params.theta1, result.params.theta2),
    )


def pc_episodic_pass(fixture, ops) -> PassResult:
    config = replace(pcmem.preset("exp1"), max_epochs=PC_EPOCHS)
    return _train_pass(config, config.batch_size, fixture, ops)


def ipc_semantic_pass(fixture, ops) -> PassResult:
    config = replace(pcmem.preset("exp2"), max_epochs=IPC_EPOCHS)
    return _train_pass(config, len(fixture.splits.train), fixture, ops)


def memory_recall_pass(fixture, ops) -> PassResult:
    params, splits = fixture.params, fixture.splits
    mask = pcmem.OcclusionMask.top_half()
    suite, t_recall = ops.run(
        "experiments.run_recall_suite",
        lambda: pcmem.run_recall_suite(params, splits, n_images=RECALL_IMAGES, mask=mask),
        lambda r: check_recall(r, mask),
    )
    replay_ms, eval_rates = [], []
    for b in range(REPLAY_BATCHES):
        x = splits.train.images[b * REPLAY_BATCH : (b + 1) * REPLAY_BATCH]
        _, s = ops.run(
            f"memory.replay[{b}]",
            lambda: pcmem.replay(params, x),
            lambda r: check_replay(params, r, REPLAY_BATCH),
        )
        replay_ms.append(1e3 * s)
    test = splits.test.images
    recon_rates, recon_digests = [], []
    for _ in range(SHORT_OP_REPEATS):
        recon, s = ops.run(
            "memory.reconstruct",
            lambda: pcmem.reconstruct(params, test),
            check_array("reconstruction", test.shape),
        )
        recon_rates.append(len(test) / s)
        recon_digests.append(digest(recon))
    ops.expect_equal("memory.reconstruct repeats", recon_digests)
    energies = {}
    for name, split in (("validation", splits.validation), ("test", splits.test)):
        for _ in range(SHORT_OP_REPEATS):
            e, s = ops.run(
                "experiments.evaluate_errors",
                lambda: pcmem.evaluate_errors(params, split),
                check_array("energies", (3,)),
            )
            energies.setdefault(name, []).append(e)
            eval_rates.append(len(split) / s)
        ops.expect_equal(f"evaluate_errors repeats on {name}", [digest(e) for e in energies[name]])
    return PassResult(
        values={
            "recall_images_per_s": RECALL_IMAGES / t_recall,
            "recall_masked_mse": suite.mean_mse,
            "recall_iterations": float(np.sum(suite.iterations)),
            "val_input_energy": float(energies["validation"][0][0]),
        },
        samples={
            "replay_ms_p50": replay_ms,
            "eval_images_per_s": eval_rates,
            "reconstruct_images_per_s": recon_rates,
        },
        digest=digest(
            params.theta1, params.theta2, suite.recalled, recon,
            energies["validation"][0], energies["test"][0],
        ),
    )


PASSES = {
    "pc-episodic": pc_episodic_pass,
    "ipc-semantic": ipc_semantic_pass,
    "memory-recall": memory_recall_pass,
}


# ---------------------------------------------------------------- tracing


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _matmul_flops(params, batch) -> float:
    """2*B*d1*d2: one B x d1 x d2 product (d1 = 784, d2 = 35)."""
    d1, d2, _ = params.dims
    return 2.0 * batch * d1 * d2


def _errors_flops(args, kwargs):
    gate = kwargs.get("input_gate", args[3] if len(args) > 3 else True)
    if not gate:
        return 0.0
    return _matmul_flops(_arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "state").batch)


def _latent_flops(args, kwargs):
    return _matmul_flops(_arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "state").batch)


def _reconstruct_flops(args, kwargs):
    x = np.atleast_2d(_arg(args, kwargs, 1, "x"))
    return _matmul_flops(_arg(args, kwargs, 0, "params"), x.shape[0])


def _regenerate_flops(args, kwargs):
    return _matmul_flops(_arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "phi3").shape[0])


TRACE_TARGETS = [
    Target("core", "compute_errors", flops=_errors_flops),
    Target("core", "inference_gradients", flops=_latent_flops),
    Target("core", "learning_gradients", flops=_latent_flops),
    Target("core", "activation_eval"),
    Target("core", "free_energy"),
    Target("core", "inference_step"),
    Target("optim", "adam_step"),
    Target("experiments", "train"),
    Target("experiments", "evaluate_errors"),
    Target("experiments", "run_recall_suite"),
    Target("memory", "recall", iterations=lambda r: np.sum(r.iterations)),
    Target("memory", "replay"),
    Target("memory", "regenerate", flops=_regenerate_flops),
    Target("memory", "infer_latents"),
    Target("memory", "reconstruct", flops=_reconstruct_flops),
    Target("data", "load_raw"),
    Target("data", "build_splits"),
    Target("checkpoint", "save_checkpoint"),
    Target("checkpoint", "load_checkpoint"),
]

# Layers that run during set-up; their per-layer figures are per set-up,
# every other layer's are per timed pass. write_corpus runs in a child
# process, so its time comes from Fixture.corpus_s, not from the tracer.
SETUP_LAYERS = ("data.", "checkpoint.", "synthetic.")
