import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quanvrob.attacks import AdversarialBatch, AttackKind, AttackSpec, load_batch, save_batch
from quanvrob.classical import DenseHead, load_checkpoint, save_checkpoint
from quanvrob.quanv import read_feature_cache, write_feature_cache

KINDS = ("checkpoint", "adversarial_batch", "feature_cache")

fuzz = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_records(path, header, *arrays):
    """Container bytes written by hand: a JSON header record, then the arrays, unchecked."""
    with open(path, "wb") as fh:
        np.save(fh, np.frombuffer(json.dumps(header).encode(), dtype=np.uint8))
        for array in arrays:
            np.save(fh, array)


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of a container file, keeping the bytes of its arrays."""
    with open(path, "rb") as fh:
        header = json.loads(np.load(fh).tobytes())
        arrays = fh.read()
    edit(header)
    write_records(path, header)
    with open(path, "ab") as fh:
        fh.write(arrays)


def small_file(kind, path, seed, n, h, w):
    """Write a small valid file of ``kind``.

    Returns what was written and a function that reads the file back, each as
    a tuple of values and arrays.
    """
    rng = np.random.default_rng(seed)
    if kind == "checkpoint":
        head = DenseHead(rng.normal(size=(10, n * h * w)), rng.normal(size=10))
        save_checkpoint(path, "cnn", seed, "f" * 64, head)
        written = ("cnn", seed, "f" * 64, head.weights, head.bias)

        def read():
            kind_, seed_, fingerprint, loaded = load_checkpoint(path)
            return kind_, seed_, fingerprint, loaded.weights, loaded.bias

    elif kind == "adversarial_batch":
        originals = rng.random((n, h, w))
        adversarials = np.clip(originals + 0.1 * rng.choice([-1.0, 0.0, 1.0], size=originals.shape), 0.0, 1.0)
        spec = AttackSpec(AttackKind.PGD, 0.1, step_size=0.025 * (seed + 1), iterations=n)
        save_batch(path, AdversarialBatch(originals, adversarials, "f" * 64, spec))
        written = (spec, "f" * 64, originals, adversarials)

        def read():
            batch = load_batch(path)
            return batch.spec, batch.source_fingerprint, batch.originals, batch.adversarials

    else:
        indices, maps = rng.permutation(3 * n)[:n], rng.normal(size=(n, h, w, 4))
        write_feature_cache(path, "ab" * 32, indices, maps)
        written = ("ab" * 32, list(indices), *maps)

        def read():
            loaded, digest = read_feature_cache(path, "ab" * 32)
            return digest, list(loaded), *loaded.values()

    return written, read


def same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


files = st.tuples(st.integers(0, 2**16), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


@pytest.mark.parametrize("kind", KINDS)
@fuzz
@given(file=files)
def test_round_trip_is_exact(tmp_path, kind, file):
    path = tmp_path / "file"
    written, read = small_file(kind, path, *file)
    assert same(read(), written)


@pytest.mark.parametrize("kind", KINDS)
@fuzz
@given(file=files, data=st.data())
def test_truncation_at_any_offset_is_rejected(tmp_path, kind, file, data):
    path = tmp_path / "file"
    _, read = small_file(kind, path, *file)
    raw = path.read_bytes()
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read()


@pytest.mark.parametrize("kind", KINDS)
@fuzz
@given(file=files, extra=st.binary(min_size=1, max_size=300))
def test_appended_bytes_are_rejected(tmp_path, kind, file, extra):
    path = tmp_path / "file"
    _, read = small_file(kind, path, *file)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read()


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file=files, data=st.data())
def test_a_flipped_byte_raises_value_error_or_loads(tmp_path, kind, file, data):
    path = tmp_path / "file"
    _, read = small_file(kind, path, *file)
    raw = bytearray(path.read_bytes())
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(raw))
    try:
        read()
    except ValueError:
        pass


def test_a_header_that_parses_with_a_warning_is_rejected_without_the_warning(tmp_path):
    """A flipped byte can turn "'descr'" into "'\\oscr'", an invalid escape on which Python only warns."""
    path = tmp_path / "cache"
    write_feature_cache(path, "f" * 64, np.arange(2), np.zeros((2, 1, 1, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"'descr'", b"'\\oscr'", 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_feature_cache(path)
    assert not caught


@fuzz
@given(
    shape=st.lists(st.integers(0, 12), min_size=1, max_size=3),
    dtype=st.sampled_from(["<f8", "<f4", ">f8", "<i8", "<c16"]),
)
def test_checkpoint_weights_must_be_ten_by_d_f8(tmp_path, shape, dtype):
    if len(shape) == 2 and shape[0] == 10 and dtype == "<f8":
        shape[0] = 9
    header = {
        "kind": "checkpoint",
        "version": 1,
        "arrays": ["weights", "bias"],
        "model_kind": "cnn",
        "extractor_seed": 0,
        "extractor_fingerprint": "f" * 64,
    }
    path = tmp_path / "model.ckpt"
    write_records(path, header, np.zeros(shape, dtype=dtype), np.zeros(10))
    with pytest.raises(ValueError, match="weights|head"):
        load_checkpoint(path)
    write_records(path, header, np.zeros((10, 3)), np.zeros(10))
    assert load_checkpoint(path)[3].weights.shape == (10, 3)


@pytest.mark.parametrize("kind", KINDS)
def test_saving_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, kind):
    path, fresh = tmp_path / "file", tmp_path / "fresh"
    small_file(kind, path, 1, 3, 3, 3)
    written, read = small_file(kind, fresh, 2, 1, 2, 2)
    assert path.stat().st_size > fresh.stat().st_size
    small_file(kind, path, 2, 1, 2, 2)
    assert path.read_bytes() == fresh.read_bytes()
    assert same(read(), written)


def test_saving_over_a_symlink_replaces_it_and_leaves_its_target(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    small_file("checkpoint", target, 1, 2, 2, 2)
    before = target.read_bytes()
    link.symlink_to(target)
    written, _ = small_file("checkpoint", link, 2, 1, 2, 2)
    assert not link.is_symlink()
    assert target.read_bytes() == before
    assert same(load_checkpoint(link)[:2], written[:2])


def test_missing_file_is_not_a_value_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_corrupt_npy_version_is_rejected_before_any_large_read(tmp_path):
    """Major version 3 makes numpy read a 4-byte header length out of the header's own text."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "cnn", 0, "f" * 64, DenseHead(np.zeros((10, 784)), np.zeros(10)))
    raw = bytearray(path.read_bytes())
    raw[6] = 3
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_corrupt_shape_is_rejected_before_any_large_read(tmp_path):
    """A ~1 KB checkpoint whose weights record declares 10 x 10_000_000 doubles (800 MB)."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "cnn", 0, "f" * 64, DenseHead(np.zeros((10, 10)), np.zeros(10)))
    with open(path, "rb") as fh:
        header = np.load(fh)
    with open(path, "wb") as fh:
        np.save(fh, header)
        np.lib.format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False, "shape": (10, 10_000_000)})
        fh.write(np.zeros((10, 10)).tobytes())
        np.save(fh, np.zeros(10))
    assert path.stat().st_size < 2048
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("descr, shape", [("<f8", (-1,)), ("|O", (10,))])
def test_negative_shapes_and_objects_are_rejected(tmp_path, descr, shape):
    """A bias record that declares shape (-1,) or object items over the 80 bytes of ten doubles."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "cnn", 0, "f" * 64, DenseHead(np.zeros((10, 3)), np.zeros(10)))
    with open(path, "rb") as fh:
        header, weights = np.load(fh), np.load(fh)
    with open(path, "wb") as fh:
        np.save(fh, header)
        np.save(fh, weights)
        np.lib.format.write_array_header_1_0(fh, {"descr": descr, "fortran_order": False, "shape": shape})
        fh.write(np.zeros(10).tobytes())
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_fortran_ordered_records_round_trip(tmp_path):
    header = {
        "kind": "checkpoint",
        "version": 1,
        "arrays": ["weights", "bias"],
        "model_kind": "cnn",
        "extractor_seed": 0,
        "extractor_fingerprint": "f" * 64,
    }
    weights = np.asfortranarray(np.random.default_rng(6).normal(size=(10, 7)))
    path = tmp_path / "model.ckpt"
    write_records(path, header, weights, np.arange(10.0))
    loaded = load_checkpoint(path)[3]
    assert np.array_equal(loaded.weights, weights) and np.array_equal(loaded.bias, np.arange(10.0))
