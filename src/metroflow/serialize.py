"""Binary container for named float64 arrays.

Layout: one line of canonical JSON (sorted keys, no extra whitespace)
terminated by a newline, followed by the concatenated little-endian f64
payloads.  The header lists every entry's name, shape and byte offset into
the payload, so the format is self-describing and round-trips bit-exactly.
Storage stays float64: a float32 array, such as a model's weights, is
written widened, which is exact, and read back as float64.
Every artifact is written through ``atomic_write``, never half-written.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import SchemaError

FORMAT = "metroflow-blob"
VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """Stable sha256 hex digest of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def atomic_write(path, *chunks) -> None:
    """Write ``chunks`` (bytes or contiguous arrays) to a temporary file beside
    ``path``, fsync it, move it into place and fsync the directory, so the
    rename is durable too; on any error before the rename the temporary file
    is removed and ``path`` kept."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())  # the bytes reach the disk before the rename
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)  # the rename, a change to the directory, reaches the disk
    finally:
        os.close(directory)


def write_blob(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write ``arrays`` and ``meta``, each array's buffer as it is: no copy."""
    entries = []
    offset = 0
    payloads = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payloads.append(arr)
        offset += arr.nbytes
    header = {"format": FORMAT, "version": VERSION, "meta": meta, "entries": entries}
    atomic_write(path, canonical_json(header).encode("utf-8") + b"\n", *payloads)


def read_blob(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    with open(path, "rb") as fh:
        line = fh.readline()
        # one writable buffer; every entry is a view of it, not a copy
        payload = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
        del payload[fh.readinto(payload):]
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path} is not a metroflow blob: bad header ({exc})") from exc
    if not isinstance(header, dict):
        raise SchemaError(f"{path} is not a metroflow blob: header is not a JSON object")
    if header.get("format") != FORMAT or header.get("version") != VERSION:
        raise SchemaError(f"{path} has format {header.get('format')!r} version "
                          f"{header.get('version')!r}, expected {FORMAT!r} version {VERSION}")
    if not isinstance(header.get("entries"), list) or not isinstance(header.get("meta"), dict):
        raise SchemaError(f"{path} header lacks its entries list or meta object")
    arrays = {}
    for entry in header["entries"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(v) is int and v >= 0 for v in [entry.get("offset"), *entry["shape"]])):
            raise SchemaError(f"{path} has a malformed entry {canonical_json(entry)[:80]}; "
                              "expected a name, a non-negative int shape list and offset")
        count = math.prod(entry["shape"])
        start = entry["offset"]
        if start + 8 * count > len(payload):
            raise SchemaError(f"{path} is truncated: entry {entry['name']!r} needs bytes "
                              f"{start}..{start + 8 * count} of {len(payload)}")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        arrays[entry["name"]] = arr.reshape(entry["shape"]).astype(np.float64, copy=False)
    return arrays, header["meta"]
