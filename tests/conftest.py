import numpy as np
import pytest

from pcmem import synthetic
from pcmem.core import LatentState, compute_errors, inference_gradients, init_params
from pcmem.data import DatasetSplits, Split, build_splits, load_raw
from pcmem.experiments import ExperimentConfig, train


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Synthetic MNIST-format corpus with standard-sized 4/7 subsets."""
    out = tmp_path_factory.mktemp("corpus")
    synthetic.write_corpus(out, seed=0)
    return out


@pytest.fixture(scope="session")
def raw_sets(corpus_dir):
    return load_raw(corpus_dir)


@pytest.fixture(scope="session")
def splits(raw_sets):
    train_raw, test_raw = raw_sets
    return build_splits(train_raw, test_raw, split_seed=0)


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
        split_seed=0,
    )


@pytest.fixture(scope="session")
def toy_data():
    return toy_splits()


@pytest.fixture(scope="session")
def toy_params():
    return init_params(TOY_DIMS, np.random.default_rng(3))


@pytest.fixture(scope="session")
def toy_trained(toy_data):
    """Small PC model trained briefly on the toy patterns."""
    config = ExperimentConfig(
        mode="pc",
        beta=1e-3,
        scope="full",
        dims=TOY_DIMS,
        batch_size=16,
        max_epochs=300,
        val_every=100,
        epsilon=0.0,
    )
    return train(config, toy_data).params


def direct_descent(params, state, x, alpha, n_iters):
    """Reference: the direct-form latent loop, compute_errors and
    inference_gradients once per step (two batch x d1 products)."""
    for _ in range(n_iters):
        d_phi2, d_phi3 = inference_gradients(params, state, compute_errors(params, state, x))
        state = LatentState(phi2=state.phi2 - alpha * d_phi2, phi3=state.phi3 - alpha * d_phi3)
    return state
