import gzip
import io
import math
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pcmem import experiments, synthetic
from pcmem.checkpoint import RunManifest, save_checkpoint
from pcmem.core import LatentState, ModelParams, free_energy, init_params
from pcmem.data import (DEFAULT_FILENAMES, DIGITS, IDX_UBYTE, TRAIN_SIZE, DatasetSplits,
                        IdxFormatError, RawImageSet, Split, _read_header, _read_payload,
                        build_splits, data_file, load_idx, load_raw)
from pcmem.experiments import ExperimentConfig, train
from pcmem.memory import OcclusionMask
from pcmem.optim import ADAM_DECAY1, ADAM_DECAY2, ADAM_EPSILON, AdamState


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Synthetic MNIST-format corpus with standard-sized 4/7 subsets."""
    out = tmp_path_factory.mktemp("corpus")
    synthetic.write_corpus(out, seed=0)
    return out


@pytest.fixture(scope="session")
def gzip_corpus_dir(corpus_dir, tmp_path_factory):
    """The corpus with each of its four files gzipped, and no plain file."""
    out = tmp_path_factory.mktemp("corpus-gz")
    for name in DEFAULT_FILENAMES.values():
        blob = gzip.compress((corpus_dir / name).read_bytes(), compresslevel=1, mtime=0)
        (out / (name + ".gz")).write_bytes(blob)
    return out


@pytest.fixture(scope="session")
def raw_sets(corpus_dir):
    return load_raw(corpus_dir)


def whole_file_raw_sets(data_dir):
    """The train-side and test-side RawImageSets of every example in
    data_dir, each file read whole with load_idx: what load_raw filters."""
    def load(key):
        return load_idx(data_file(data_dir, DEFAULT_FILENAMES[key]))

    return (RawImageSet(load("train_images"), load("train_labels")),
            RawImageSet(load("test_images"), load("test_labels")))


@pytest.fixture(scope="session")
def whole_raw_sets(corpus_dir):
    return whole_file_raw_sets(corpus_dir)


@pytest.fixture(scope="session")
def splits(raw_sets):
    train_raw, test_raw = raw_sets
    return build_splits(train_raw, test_raw, split_seed=0)


def read_idx_bytes(data):
    """The library's one IDX reader, data._read_header then
    data._read_payload in CHUNK_BYTES reads, run over the bytes data in
    memory: what load_idx reads from a plain file."""
    stream = io.BytesIO(data)
    return _read_payload(stream, _read_header(stream))


def whole_buffer_parse_idx(data):
    """Reference: the IDX reader in a whole-buffer form, which checks the
    header of the bytes in hand and views the rest as the payload."""
    if len(data) < 4:
        raise IdxFormatError("truncated IDX header")
    zero0, zero1, type_code, n_dims = struct.unpack(">BBBB", data[:4])
    if zero0 != 0 or zero1 != 0:
        raise IdxFormatError(f"bad IDX magic bytes ({zero0:#x}, {zero1:#x})")
    if type_code != IDX_UBYTE:
        raise IdxFormatError(f"unsupported IDX type code {type_code:#x}")
    header_len = 4 + 4 * n_dims
    if n_dims == 0:
        raise IdxFormatError("IDX header declares no dimensions")
    if len(data) < header_len:
        raise IdxFormatError("truncated IDX dimension header")
    dims = struct.unpack(f">{n_dims}I", data[4:header_len])
    expected = math.prod(dims)
    payload = memoryview(data)[header_len:]
    if len(payload) != expected:
        raise IdxFormatError(
            f"IDX payload length {len(payload)} != expected {expected} for dims {dims}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def scipy_template_bank():
    """Reference: synthetic.template_bank built with scipy.ndimage: each
    digit's strokes blurred by gaussian_filter(sigma=0.8), scaled to peak 1
    and turned to each angle by rotate(reshape=False, order=1)."""
    from scipy import ndimage

    angles = np.linspace(-12.0, 12.0, synthetic._N_ANGLES)
    bank = np.zeros((10, angles.size, 28, 28))
    for digit, strokes in enumerate(synthetic._strokes()):
        canvas = ndimage.gaussian_filter(strokes, sigma=0.8)
        base = np.clip(canvas / canvas.max(), 0.0, 1.0)
        for j, angle in enumerate(angles):
            bank[digit, j] = np.clip(ndimage.rotate(base, angle, reshape=False, order=1), 0.0, 1.0)
    return bank


def roll_render(labels, bank, rng):
    """Reference: synthetic._render in direct form. Each chunk gathers
    fresh copies of its templates, np.roll's them by their shift, group by
    group, and draws its noise as one new array."""
    n = labels.shape[0]
    variants = rng.integers(0, synthetic._N_ANGLES, size=n)
    shifts = rng.integers(-synthetic._MAX_SHIFT, synthetic._MAX_SHIFT + 1, size=(n, 2))
    gains = rng.uniform(0.55, 1.0, size=n)
    span = range(-synthetic._MAX_SHIFT, synthetic._MAX_SHIFT + 1)
    out = np.empty((n, 28, 28), dtype=np.uint8)
    for start in range(0, n, synthetic._CHUNK):
        part = slice(start, start + synthetic._CHUNK)
        images = bank[labels[part], variants[part]]
        rows, cols = shifts[part].T
        for dr in span:
            for dc in span:
                idx = np.flatnonzero((rows == dr) & (cols == dc))
                if idx.size and (dr or dc):
                    images[idx] = np.roll(images[idx], (dr, dc), axis=(1, 2))
        stroke = images > 0.08
        images *= gains[part, None, None]
        images += 0.06 * rng.standard_normal(images.shape) * stroke
        out[part] = (np.clip(images, 0.0, 1.0) * 255).round()
    return out


def filter_and_scale(raw):
    """Reference: the DIGITS examples of a RawImageSet, every image scaled
    to float64 in [0, 1] as one (count, 784) array before any split takes
    rows, and labels mapped to 0/1."""
    mask = np.isin(raw.labels, DIGITS)
    images = raw.images[mask].reshape(-1, raw.images.shape[1] * raw.images.shape[2])
    images = images.astype(np.float64) / 255.0
    labels = (raw.labels[mask] == DIGITS[1]).astype(np.uint8)
    return images, labels


def direct_splits(train_raw, test_raw, split_seed):
    """Reference: build_splits in its float-first form, the rows of
    filter_and_scale's arrays in the seeded order."""
    train_images, train_labels = filter_and_scale(train_raw)
    test_images, test_labels = filter_and_scale(test_raw)
    order = np.random.default_rng(split_seed).permutation(train_images.shape[0])
    train_idx, val_idx = order[:TRAIN_SIZE], order[TRAIN_SIZE:]
    return DatasetSplits(
        train=Split(train_images[train_idx], train_labels[train_idx]),
        validation=Split(train_images[val_idx], train_labels[val_idx]),
        test=Split(test_images, test_labels),
    )


TOY_DIMS = (25, 8, 2)


def toy_patterns(n=16, seed=7):
    """Smooth random 5x5 patterns in [0, 1]."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 1, size=(n, 5, 5))
    from scipy.ndimage import gaussian_filter

    imgs = np.stack([gaussian_filter(b, 1.0) for b in base])
    imgs -= imgs.min(axis=(1, 2), keepdims=True)
    imgs /= imgs.max(axis=(1, 2), keepdims=True)
    return imgs.reshape(n, 25)


def toy_splits(n_train=16, n_val=8, seed=7) -> DatasetSplits:
    imgs = toy_patterns(n_train + n_val, seed)
    labels = np.arange(n_train + n_val) % 2
    return DatasetSplits(
        train=Split(imgs[:n_train], labels[:n_train]),
        validation=Split(imgs[n_train:], labels[n_train:]),
        test=Split(imgs[n_train:], labels[n_train:]),
    )


@pytest.fixture(scope="session")
def toy_data():
    return toy_splits()


@pytest.fixture(scope="session")
def toy_params():
    return init_params(TOY_DIMS, np.random.default_rng(3))


@pytest.fixture
def toy_latent_dims(monkeypatch):
    """train builds TOY_DIMS models: d1 is the toy images' 25 pixels, and
    the latent sizes are experiments.LATENT_DIMS."""
    monkeypatch.setattr(experiments, "LATENT_DIMS", TOY_DIMS[1:])


@pytest.fixture(scope="session")
def toy_trained(toy_data):
    """Small PC model trained briefly on the toy patterns, all 300 epochs."""
    config = ExperimentConfig(
        mode="pc",
        beta=1e-3,
        batch_size=16,
        max_epochs=300,
        val_every=100,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "LATENT_DIMS", TOY_DIMS[1:])
        return train(config, toy_data).params


def overflowing_recall():
    """recall's arguments for a 784-35-2 model whose hidden theta1 rows
    (under the top-half mask) are 1e308, on three uniform images: the
    visible-row settle stays finite and phi2 theta1_h^T overflows."""
    mask = OcclusionMask.top_half()
    params = init_params((784, 35, 2), np.random.default_rng(0))
    theta1 = params.theta1.copy()
    theta1[mask.hidden] = 1e308
    images = np.random.default_rng(0).uniform(0, 1, (3, 784))
    return ModelParams(theta1, params.theta2), images, mask


def tanh_prime(params, state):
    """Reference: f'(theta2 phi3) = 1 - tanh^2, formed from the definition."""
    pred2 = np.tanh(state.phi3 @ params.theta2.T)
    return 1.0 - pred2 * pred2


def compute_errors(params, state, x):
    """Reference: the three prediction errors in direct form, as plain
    arrays: xi1 = x - phi2 theta1^T, xi2 = phi2 - tanh(phi3 theta2^T) and
    xi3 = phi3."""
    return SimpleNamespace(
        xi1=x - state.phi2 @ params.theta1.T,
        xi2=state.phi2 - np.tanh(state.phi3 @ params.theta2.T),
        xi3=state.phi3,
    )


def inference_gradients(params, state, errors):
    """Reference: per-example latent gradients of l in direct form,
    d_phi2 = xi2 - xi1 theta1 and d_phi3 = xi3 - (xi2 * f') theta2."""
    d_phi2 = errors.xi2 - errors.xi1 @ params.theta1
    d_phi3 = errors.xi3 - (errors.xi2 * tanh_prime(params, state)) @ params.theta2
    return d_phi2, d_phi3


def direct_descent(params, state, x, alpha, n_iters):
    """Reference: the direct-form latent loop, compute_errors and
    inference_gradients once per step (two batch x d1 products)."""
    for _ in range(n_iters):
        d_phi2, d_phi3 = inference_gradients(params, state, compute_errors(params, state, x))
        state = LatentState(phi2=state.phi2 - alpha * d_phi2, phi3=state.phi3 - alpha * d_phi3)
    return state


def value_form_descent(params, state, x, alpha, n_iters):
    """Reference: the Gram-form latent loop written as fresh-array
    expressions, in core.descend_latents's operation order; changes none
    of its arguments."""
    theta1, theta2 = params.theta1, params.theta2
    gram = theta1.T @ theta1
    drive = x @ theta1
    phi2, phi3 = state.phi2, state.phi3
    for _ in range(n_iters):
        pred2 = np.tanh(phi3 @ theta2.T)
        xi2 = phi2 - pred2
        d_phi2 = xi2 - drive + phi2 @ gram
        d_phi3 = phi3 - (xi2 * (1.0 - pred2 * pred2)) @ theta2
        phi2 = phi2 - alpha * d_phi2
        phi3 = phi3 - alpha * d_phi3
    return LatentState(phi2=phi2, phi3=phi3)


# The settle's Gram-form 1/2 |xi1|^2 cancels where 1/2 |x|^2 is large
# against it. On the 64 memorised images of an 8000-epoch exp1 model
# (1/2 |x|^2 up to 134 e1) an example's e1 was within 9.2e-14 relative of
# free_energy's and the batch mean within 5.3e-15; on its 2010 validation
# images, within 2.5e-14 and 1.1e-15.
GRAM_ENERGY_RTOL = 1e-12


def assert_energies_match_free_energy(params, state, x):
    """A settle's energies() against the direct-form oracle free_energy at
    the same latents: 1/2 |xi2|^2 and 1/2 |phi3|^2 bit for bit,
    1/2 |xi1|^2 per example and every column mean within
    GRAM_ENERGY_RTOL."""
    got, want = state.energies(), free_energy(params, state, x)
    np.testing.assert_array_equal(got[:, 1:], want[:, 1:])
    np.testing.assert_allclose(got[:, 0], want[:, 0], rtol=GRAM_ENERGY_RTOL, atol=0)
    np.testing.assert_allclose(got.mean(axis=0), want.mean(axis=0), rtol=GRAM_ENERGY_RTOL, atol=0)


def direct_learning_gradients(params, state, x):
    """Reference: the weight gradients in direct form, -<xi1 phi2^T> and
    -<(xi2 * f') phi3^T> from compute_errors (one batch x d1 residual)."""
    errors = compute_errors(params, state, x)
    b = state.batch
    d_theta1 = -(errors.xi1.T @ state.phi2) / b
    d_theta2 = -((errors.xi2 * tanh_prime(params, state)).T @ state.phi3) / b
    return d_theta1, d_theta2


def value_form_adam_step(param, grad, state, rate):
    """Reference: Adam written as fresh-array expressions, in
    optim.adam_step's operation order; returns the new parameter and state
    and changes none of its arguments."""
    t = state.t + 1
    m = ADAM_DECAY1 * state.m + (1.0 - ADAM_DECAY1) * grad
    v = ADAM_DECAY2 * state.v + (1.0 - ADAM_DECAY2) * grad * grad
    root2 = math.sqrt(1.0 - ADAM_DECAY2**t)
    rate_t = rate * root2 / (1.0 - ADAM_DECAY1**t)
    new_param = param - m / (np.sqrt(v) + ADAM_EPSILON * root2) * rate_t
    return new_param, AdamState(m=m, v=v, t=t)


def checkpoint_extras(params):
    """Fresh Adam states for params' two weight matrices and a manifest
    with an empty config: the rest of a checkpoint for tests that need
    only its weights."""
    adam = (AdamState.fresh(params.theta1.shape), AdamState.fresh(params.theta2.shape))
    return adam, RunManifest(config={})


def save_zero_width_checkpoint(path, dims):
    """save_checkpoint's file for `dims` with a zero among them, written from
    a stand-in for ModelParams, which rejects such dims; its Adam states
    are zero-size too."""
    d1, d2, d3 = dims
    stand_in = SimpleNamespace(dims=dims, theta1=np.zeros((d1, d2)), theta2=np.zeros((d2, d3)))
    save_checkpoint(path, stand_in, *checkpoint_extras(stand_in))


def read_pgm(path):
    """Oracle for the PGM files pcmem writes: read a binary P5 PGM with
    maxval 255, rejecting any other magic and a short payload."""
    raw = Path(path).read_bytes()
    # header is exactly "P5\n{w} {h}\n255\n"; locate the third newline so
    # payload bytes that happen to be whitespace are not swallowed
    third = -1
    for _ in range(3):
        third = raw.index(b"\n", third + 1)
    magic, size, maxval = raw[:third].split(b"\n")
    if magic != b"P5":
        raise ValueError("not a binary PGM file")
    w, h = (int(v) for v in size.split())
    if int(maxval) != 255:
        raise ValueError("only maxval 255 supported")
    pixels = raw[third + 1 :]
    if len(pixels) != w * h:
        raise ValueError("truncated PGM payload")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)
