"""One versioned on-disk container for checkpoints, adversarial batches and feature caches.

Layout.  A file is a run of ``.npy`` records, numpy's own array format.  The
first record is a uint8 array holding the UTF-8 JSON header

    {"kind": ..., "version": 1, "arrays": [names], ...fields}

and the named arrays follow, one record each, in that order.  The file ends
after the last array.  ``KINDS`` fixes, per kind, the header fields with
their types (``str``, ``int`` but not bool, or ``dict``) and each array's
dtype and number of dimensions.  Each array holds one row per
item along its first axis (per image, or per class of a head), so all the
arrays of a file share that length.  ``save`` and ``load`` check the same
rules, so a file ``save`` writes is one ``load`` reads, and ``load`` rejects
anything else with a ``ValueError`` that names the path.  ``load`` accepts
only records in ``.npy`` format 1.0, the one ``save`` writes: its header
length is a 2-byte field, where later formats have a 4-byte one, so a
corrupt version byte cannot make numpy ask for a read buffer of gigabytes.
It parses each record's header once with numpy's own reader, turns any
warning from that parse into an error, rejects object dtypes and negative
dimensions, and compares the bytes the declared shape needs with the bytes
left in the file before it reads the data with ``np.fromfile``, so a
corrupt shape fails before anything is allocated.

Version rule.  ``VERSION`` goes up whenever the layout or a kind's fields or
arrays change.  A reader accepts its own version only; there is no reader
for older files.

Why not ``np.savez``.  It stores the same ``.npy`` records inside a zip
archive and adds a CRC-32 on every write and read.  On the benchmark's
``transfer`` workload (2 CPUs, numpy 2.4.6) a prototype over ``np.savez``
lost 5.7% of ``imgs_per_s`` against 3.0% for plain records, in the median
of 3 alternating pairs of 30 s runs against the hand-parsed formats.  Those
had no checksum either, so plain records drop nothing.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import warnings

import numpy as np

VERSION = 1

# per kind: each header field's type, then each array's dtype and number of dimensions
KINDS = {
    "checkpoint": (
        {"model_kind": str, "extractor_seed": int, "extractor_fingerprint": str},
        {"weights": ("<f8", 2), "bias": ("<f8", 1)},
    ),
    "adversarial_batch": (
        {"spec": dict, "source_fingerprint": str},
        {"originals": ("<f8", 3), "adversarials": ("<f8", 3)},
    ),
    "feature_cache": ({"fingerprint": str}, {"indices": ("<u8", 1), "maps": ("<f8", 4)}),
}


def _check(kind: str, header: dict, arrays: dict) -> None:
    fields, schema = KINDS[kind]
    if not header.keys() >= fields.keys():
        raise ValueError(f"the header is missing the fields {sorted(fields.keys() - header.keys())}")
    for name, type_ in fields.items():
        value = header[name]
        # a bool is an int, but no field holds one
        if not isinstance(value, type_) or isinstance(value, bool):
            raise ValueError(f"the header field {name!r} is {value!r}, expected {type_.__name__}")
    for name, (dtype, ndim) in schema.items():
        array = arrays[name]
        if array.dtype != dtype or array.ndim != ndim:
            raise ValueError(f"array {name!r} is {array.ndim}-d {array.dtype.str}, expected {ndim}-d {dtype}")
    if len({len(array) for array in arrays.values()}) > 1:
        raise ValueError(f"the arrays differ in length: {[array.shape for array in arrays.values()]}")


def save(path, kind: str, header: dict, **arrays) -> None:
    """Write ``header`` and the arrays of ``kind`` to a new file at ``path``.

    An existing file at ``path`` is unlinked first, not truncated: ext4
    flushes a truncated file when it is closed.  Rewriting a 10-image
    adversarial batch took a median 0.27-0.35 ms by truncation and
    0.16-0.21 ms after an unlink (300 saves, three runs each, on ext4 with
    2 CPUs).  So a symlink at ``path`` is replaced, not followed, and
    another hard link to the old file keeps the old bytes.
    """
    arrays = {name: np.asarray(arrays[name], dtype=dtype) for name, (dtype, _) in KINDS[kind][1].items()}
    _check(kind, header, arrays)
    # serialised before the unlink, so a header that JSON cannot hold leaves the old file
    record = json.dumps({**header, "kind": kind, "version": VERSION, "arrays": list(arrays)}).encode()
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    # np.save to a str path would append ".npy" to a name like "x.ckpt"
    with open(path, "wb") as fh:
        np.save(fh, np.frombuffer(record, dtype=np.uint8))
        for array in arrays.values():
            np.save(fh, array)


def _read_record(fh, size: int) -> np.ndarray:
    """The array of the ``.npy`` record at ``fh``'s position, in a file of ``size`` bytes."""
    version = np.lib.format.read_magic(fh)
    if version != (1, 0):
        raise ValueError(f"a record is in .npy format {version[0]}.{version[1]}, expected 1.0")
    # numpy parses the header with ast.literal_eval, which only warns on some
    # corrupt text, such as an invalid escape sequence; those become errors too
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    if caught:
        raise ValueError(f"a record header does not parse cleanly: {caught[0].message}")
    if dtype.hasobject:
        raise ValueError(f"a record holds the object dtype {dtype}")
    if min(shape, default=0) < 0:
        raise ValueError(f"a record declares the negative shape {shape}")
    count = math.prod(shape)
    left = size - fh.tell()
    if count * dtype.itemsize > left:
        raise ValueError(f"a record declares a {shape} {dtype.str} array, but only {left} bytes are left")
    data = np.fromfile(fh, dtype=dtype, count=count)
    return data.reshape(shape[::-1]).T if fortran_order else data.reshape(shape)


def load(path, kind: str):
    """The header and the arrays of a ``kind`` file, as two dicts."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # every error from parsing the bytes becomes a ValueError: numpy's
        # header parser lets exceptions such as tokenize.TokenError through,
        # so no fixed list of types covers a corrupt file
        try:
            header = json.loads(_read_record(fh, size).tobytes())
            for key, value in {"kind": kind, "version": VERSION, "arrays": list(KINDS[kind][1])}.items():
                if header.get(key) != value:
                    raise ValueError(f"its {key} is {header.get(key)!r}, expected {value!r}")
            arrays = {name: _read_record(fh, size) for name in header["arrays"]}
            if fh.read(1):
                raise ValueError("trailing bytes after the last array")
            _check(kind, header, arrays)
        except Exception as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
    return header, arrays
