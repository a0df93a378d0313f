"""Acceptance suite: one test per shipped claim.

The two Experiment-1 CLI runs (shared by criteria 3, 5, 6, 7, 8, 9) and the
desk-scale Experiment-2 run (criterion 4) are session fixtures, so the
whole suite trains exactly three models.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pcmem
from pcmem.checkpoint import load_checkpoint, save_checkpoint
from pcmem.core import (
    LatentState,
    activation_eval,
    compute_errors,
    descend_latents,
    free_energy,
    inference_gradients,
    init_latents,
    init_params,
)
from pcmem.data import batch_order, build_splits
from pcmem.experiments import (
    ExperimentConfig,
    evaluate_errors,
    preset,
    run_recall_suite,
    train,
)
from pcmem.gradcheck import gradient_report
from pcmem.memory import REPLAY_REL_TOL, OcclusionMask, regenerate, replay

from conftest import direct_descent


def _cli_train(out_dir, corpus_dir):
    cmd = [
        sys.executable, "-m", "pcmem.cli", "train",
        "--preset", "exp1", "--seed", "0", "--single-thread",
        "--data-dir", str(corpus_dir), "--out", str(out_dir),
    ]
    # run the pcmem sources under test, installed or not
    src = str(Path(pcmem.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(cmd, check=True, capture_output=True, text=True, env=env)
    return out_dir


@pytest.fixture(scope="session")
def exp1_runs(corpus_dir, tmp_path_factory):
    """Two identical Experiment-1 CLI trainings (criterion 8 needs both)."""
    a = _cli_train(tmp_path_factory.mktemp("exp1a"), corpus_dir)
    b = _cli_train(tmp_path_factory.mktemp("exp1b"), corpus_dir)
    return a, b


@pytest.fixture(scope="session")
def exp1_model(exp1_runs):
    params, _, manifest = load_checkpoint(exp1_runs[0] / "checkpoint.pcn")
    return params, ExperimentConfig.from_dict(manifest.config)


@pytest.fixture(scope="session")
def exp2_result(splits):
    """Desk-scale Experiment 2: iPC on a 1000-image subset."""
    config = preset("exp2")
    from dataclasses import replace

    config = replace(config, limit_train=1000)
    return config, train(config, splits)


@pytest.fixture(scope="session")
def exp1_recall(exp1_model, splits):
    params, config = exp1_model
    return run_recall_suite(params, splits, n_images=10, seed=0, shuffle_seed=0)


def test_criterion_1_gradient_oracle():
    """Every analytic gradient matches central finite differences."""
    t0 = time.perf_counter()
    report = gradient_report(dims=(6, 4, 2), seed=0, h=1e-5)
    elapsed = time.perf_counter() - t0
    for block, err in report.items():
        print(f"criterion 1: {block} max rel err {err:.3e}")
        assert err < 1e-4, f"{block} rel err {err}"
    assert elapsed < 10.0


def test_criterion_2_dataset_fidelity(raw_sets):
    """Split sizes 10097/2010/2010; filtered count 12107 by independent scan."""
    t0 = time.perf_counter()
    train_raw, test_raw = raw_sets
    splits = build_splits(train_raw, test_raw, split_seed=0)
    assert len(splits.train) == 10097
    assert len(splits.validation) == 2010
    assert len(splits.test) == 2010
    # independent scan, scalar loop over the raw label bytes
    n47 = sum(1 for v in train_raw.labels if v == 4 or v == 7)
    print(f"criterion 2: filtered train-side count {n47}")
    assert n47 == 12107
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_experiment_1(exp1_model, exp1_recall, splits):
    """Single-batch PC overfits (val/train input-energy ratio > 1.5) and
    recalls its batch far better than an untrained baseline."""
    params, config = exp1_model
    first = batch_order(len(splits.train), config.shuffle_seed, True)[: config.batch_size]
    from pcmem.data import Split

    batch_split = Split(splits.train.images[first], splits.train.labels[first])
    train_e = evaluate_errors(params, batch_split, config.n_iters, config.alpha, config.latent_seed)
    val_e = evaluate_errors(params, splits.validation, config.n_iters, config.alpha, config.latent_seed)
    ratio = val_e[0] / train_e[0]
    print(f"criterion 3a: val/train input-energy ratio {ratio:.3f}")
    assert ratio > 1.5

    untrained = init_params(config.dims, np.random.default_rng(config.weight_seed))
    baseline = run_recall_suite(untrained, splits, n_images=10, seed=0, shuffle_seed=0)
    print(
        f"criterion 3b: recall MSE trained {exp1_recall.mean_mse:.5f} "
        f"untrained {baseline.mean_mse:.5f}"
    )
    assert exp1_recall.mean_mse < 0.5 * baseline.mean_mse


def test_criterion_4_experiment_2(exp2_result, exp1_recall, splits):
    """Desk-scale iPC: no overfitting gap, test generalization, and worse
    recall than the episodic Experiment-1 model."""
    config, result = exp2_result
    params = result.params
    from pcmem.data import Split

    train_subset = Split(
        splits.train.images[: config.limit_train],
        splits.train.labels[: config.limit_train],
    )
    train_e = evaluate_errors(params, train_subset, config.n_iters, config.alpha, config.latent_seed)
    val_e = evaluate_errors(params, splits.validation, config.n_iters, config.alpha, config.latent_seed)
    ratio = val_e[0] / train_e[0]
    print(f"criterion 4a: val/train input-energy ratio {ratio:.3f}")
    assert abs(ratio - 1.0) < 0.10

    from pcmem.memory import reconstruct

    train_x = train_subset.images[: config.batch_size]
    test_x = splits.test.images[: config.batch_size]
    mse_train = float(np.mean((reconstruct(params, train_x) - train_x) ** 2))
    mse_test = float(np.mean((reconstruct(params, test_x) - test_x) ** 2))
    print(f"criterion 4b: reconstruction MSE train {mse_train:.5f} test {mse_test:.5f}")
    assert abs(mse_test / mse_train - 1.0) < 0.25

    suite = run_recall_suite(params, splits, n_images=10, seed=0, shuffle_seed=0)
    print(
        f"criterion 4c: recall MSE semantic {suite.mean_mse:.5f} "
        f"episodic {exp1_recall.mean_mse:.5f}"
    )
    assert suite.mean_mse > exp1_recall.mean_mse


def test_criterion_5_replay_contract(exp1_model, splits):
    """Replay reaches the top-down fixpoint and ignores the input once the
    representation is frozen and the input errors are gated."""
    t0 = time.perf_counter()
    params, config = exp1_model
    first = batch_order(len(splits.train), config.shuffle_seed, True)[:8]
    x = splits.train.images[first]

    rng = np.random.default_rng(0)
    state = init_latents(params.dims, 8, rng)
    settled = descend_latents(params, state, x, config.alpha, 5000, rel_tol=REPLAY_REL_TOL)
    images, phi2 = regenerate(params, settled.phi3, settled.phi2)
    target, _ = activation_eval(params.activation, settled.phi3 @ params.theta2.T)
    gap = np.max(np.abs(phi2 - target))
    print(f"criterion 5: ||phi2 - f(theta2 phi3)||_inf {gap:.2e}")
    assert gap < 1e-4

    # gate invariance: with the input errors gated off, the phi2 updates
    # driven from the frozen phi3 are identical no matter how the input is
    # perturbed after the settle step
    def gated_phi2_step(state, u):
        errors = compute_errors(params, state, u, input_gate=False)
        d_phi2, _ = inference_gradients(params, state, errors)
        return LatentState(phi2=state.phi2 - config.alpha * d_phi2, phi3=settled.phi3)

    state_a = LatentState(phi2=settled.phi2.copy(), phi3=settled.phi3.copy())
    state_b = LatentState(phi2=settled.phi2.copy(), phi3=settled.phi3.copy())
    perturbed = x + np.random.default_rng(1).standard_normal(x.shape)
    for _ in range(200):
        state_a = gated_phi2_step(state_a, x)
        state_b = gated_phi2_step(state_b, perturbed)
    np.testing.assert_array_equal(state_a.phi2, state_b.phi2)
    np.testing.assert_array_equal(
        state_a.phi2 @ params.theta1.T, state_b.phi2 @ params.theta1.T
    )
    print("criterion 5: gated replay output invariant to input perturbation")

    full = replay(params, x, init_seed=0)
    np.testing.assert_array_equal(full, replay(params, x, init_seed=0))
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_recall_clamping(exp1_recall):
    """Visible pixels of every recall output bit-identical to the input."""
    mask = OcclusionMask.top_half()
    np.testing.assert_array_equal(
        exp1_recall.recalled[:, mask.visible],
        exp1_recall.originals[:, mask.visible],
    )
    print("criterion 6: visible half bit-identical on all 10 recalls")


def test_criterion_7_descent(exp1_model, exp2_result, splits):
    """T = 50 inference strictly reduces free energy on 100 test images."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    idx = rng.choice(len(splits.test), size=100, replace=False)
    x = splits.test.images[idx]
    for label, params in (("exp1", exp1_model[0]), ("exp2", exp2_result[1].params)):
        state = init_latents(params.dims, 100, np.random.default_rng(1))
        before, _ = free_energy(compute_errors(params, state, x))
        state = direct_descent(params, state, x, 0.01, 50)
        after, _ = free_energy(compute_errors(params, state, x))
        n_down = int(np.sum(after < before))
        print(f"criterion 7: {label} free energy reduced on {n_down}/100 images")
        assert n_down == 100
    assert time.perf_counter() - t0 < 60.0


def test_criterion_8_determinism(exp1_runs, tmp_path):
    """Seeded single-threaded runs are bit-identical; round-trip exact."""
    a, b = exp1_runs
    bytes_a = (a / "checkpoint.pcn").read_bytes()
    bytes_b = (b / "checkpoint.pcn").read_bytes()
    assert bytes_a == bytes_b
    print(f"criterion 8: checkpoints bit-identical ({len(bytes_a)} bytes)")

    params, adam, manifest = load_checkpoint(a / "checkpoint.pcn")
    resaved = tmp_path / "resaved.pcn"
    save_checkpoint(resaved, params, adam=adam, manifest=manifest)
    assert resaved.read_bytes() == bytes_a
    print("criterion 8: save/load round-trip bit-exact")


def test_criterion_9_latent_separability(exp1_model, splits):
    """phi3 class-conditional means separated by > 1 pooled std on test."""
    t0 = time.perf_counter()
    params, config = exp1_model
    x = splits.test.images
    labels = splits.test.labels.astype(bool)
    rng = np.random.default_rng(config.latent_seed)
    state = init_latents(params.dims, x.shape[0], rng)
    phi3 = direct_descent(params, state, x, config.alpha, config.n_iters).phi3
    m0, m1 = phi3[~labels].mean(axis=0), phi3[labels].mean(axis=0)
    # pooled per-class std along the between-means direction
    w = (m1 - m0) / np.linalg.norm(m1 - m0)
    a, b = phi3[~labels] @ w, phi3[labels] @ w
    pooled = np.sqrt((a.std() ** 2 + b.std() ** 2) / 2)
    separation = (b.mean() - a.mean()) / pooled
    print(f"criterion 9: class separation {separation:.3f} pooled stds")
    assert separation > 1.0
    assert time.perf_counter() - t0 < 60.0
