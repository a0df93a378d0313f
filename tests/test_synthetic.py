import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import roll_render, scipy_template_bank
from pcmem import synthetic
from pcmem.data import load_idx


def test_template_bank_is_scipys_bit_for_bit():
    got, want = synthetic.template_bank(), scipy_template_bank()
    assert got.shape == want.shape == (10, synthetic._N_ANGLES, 28, 28)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_blurred_templates_have_a_zero_border():
    """What makes the NumPy rotation equal SciPy's: a tap outside the image
    reads the edge pixel there, not 0, and the edge pixels are 0."""
    blurred = synthetic._blur(synthetic._strokes())
    inner = np.zeros(blurred.shape[1:], dtype=bool)
    inner[2:-2, 2:-2] = True
    assert np.all(blurred[:, ~inner] == 0.0)
    assert np.all(blurred[:, inner].max(axis=1) > 0.0)


@pytest.mark.parametrize("seed, n", [(0, synthetic._TEST_TOTAL), (1, synthetic._TEST_TOTAL), (0, 5)])
def test_render_is_the_roll_form_byte_for_byte(seed, n):
    """From the same generator state, _render writes the same uint8 images
    as the roll-based form and leaves the generator where it leaves it;
    10,000 test-side labels span 39 full chunks of 256 and a partial one,
    and 5 labels one partial chunk."""
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    labels = [synthetic._label_vector(rng, synthetic._TEST_FOURS, synthetic._TEST_SEVENS,
                                      synthetic._TEST_TOTAL)[:n] for rng in rngs]
    bank = synthetic.template_bank()
    got = synthetic._render(labels[0], bank, rngs[0])
    want = roll_render(labels[1], bank, rngs[1])
    assert got.dtype == want.dtype == np.uint8
    assert got.tobytes() == want.tobytes()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_write_idx_writes_any_layout(tmp_path):
    array = np.arange(24, dtype=np.uint8).reshape(2, 3, 4).transpose(0, 2, 1)
    path = tmp_path / "t.idx"
    synthetic.write_idx(path, array)
    header = bytes([0, 0, 0x08, 3]) + np.array(array.shape, ">u4").tobytes()
    assert path.read_bytes() == header + array.tobytes()
    np.testing.assert_array_equal(load_idx(path), array)


def test_import_loads_no_scipy():
    """The corpus writer needs NumPy alone; a fresh interpreter imports the
    pcmem sources under test."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pcmem.synthetic; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(synthetic.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"
