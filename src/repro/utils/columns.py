"""The one on-disk array container: named columns in an ``.npz`` archive or a raw ``.npy`` directory.

Every array artifact — graph shards and graph-cache entries, the type map,
the encoder weights — is a mapping of column names to arrays, stored either
as an ``.npz`` archive (a zip CRC over every column) or as a raw directory
of ``.npy`` files that a reader can memory-map read-only, whose
``meta.json`` holds the header and names the column files and is written
last.  A column set may carry a header: a ``format`` version and a
``fingerprint``, the SHA-256 over every other column (``x:``-prefixed
columns are ancillary and not covered).  Strings are packed as one UTF-8
blob plus offsets, so nothing stored is a pickled object array.

Every file is written through :func:`atomic_write` (a temporary file in the
same directory, then ``os.replace``), so a save never truncates a file that
another process has open or memory-mapped; a raw re-save then removes the
column files the new ``meta.json`` no longer names.  :func:`read_columns`
is the one reader: any failure to decode a container — a truncated file, a
bad zip, a missing column file, an unreadable ``meta.json`` — raises
:class:`PayloadError`, as do JSON manifests read through :func:`read_json`
and malformed contents decoded under :func:`decoding`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Mapping, Sequence, Union

import numpy as np


class PayloadError(ValueError):
    """Raised when stored bytes cannot be decoded back into an object."""


#: Commit marker and header of a raw directory; written last.
RAW_META_NAME = "meta.json"

#: Columns a raw directory keeps in ``meta.json`` as plain values instead of
#: ``.npy`` files: one-element ``int64`` or string arrays.
HEADER_KEYS = ("format", "fingerprint")


def atomic_write(path: Union[str, Path], content: Union[str, Callable[[BinaryIO], None]]) -> Path:
    """Write ``content`` to exactly ``path``: a temporary file beside it, then ``os.replace``.

    ``content`` is text (written as UTF-8) or a callable that writes into the
    open binary file.  Readers see the old file or the new one, never a
    partial one, and a reader that has the old file open or mapped keeps its
    bytes.  On failure the temporary file is removed and ``path`` is
    untouched.
    """
    path = Path(path)
    temporary = path.with_name(f".tmp-{secrets.token_hex(8)}-{path.name}")
    try:
        with open(temporary, "xb") as handle:
            if callable(content):
                content(handle)
            else:
                handle.write(content.encode("utf-8"))
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            temporary.unlink()
        raise
    return path


def pack_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Pack strings into a ``uint8`` UTF-8 blob + ``int64`` offset array."""
    parts = [text.encode("utf-8") for text in strings]
    splits = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([len(part) for part in parts], out=splits[1:])
    return np.frombuffer(b"".join(parts), dtype=np.uint8).copy(), splits


def unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    """The strings between consecutive ``offsets`` (an ``int64`` array) into a packed ``blob``.

    Raises ``ValueError`` for offsets outside the blob or out of order, and
    for bytes that are not UTF-8.
    """
    base, end = int(offsets[0]), int(offsets[-1])
    if base < 0 or end > len(blob) or (offsets[1:] < offsets[:-1]).any():
        raise ValueError("string offsets are out of order or outside their blob")
    raw = np.asarray(blob[base:end]).tobytes()
    bounds = (offsets - base).tolist()
    return [raw[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]


def fingerprint(columns: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over every column's dtype-tagged bytes, in sorted key order.

    ``x:``-prefixed columns are ancillary (callers may attach them after the
    fingerprint is computed, e.g. the graph cache's extractor version) and
    are excluded, as is the fingerprint itself.
    """
    digest = hashlib.sha256()
    for key in sorted(columns):
        if key == "fingerprint" or key.startswith("x:"):
            continue
        value = np.ascontiguousarray(columns[key])
        digest.update(key.encode("utf-8") + b"\x00")
        digest.update(str(value.dtype).encode("utf-8") + b"\x00")
        digest.update(value.tobytes())
    return digest.hexdigest()


def verify_fingerprint(columns: Mapping[str, np.ndarray], where: str) -> None:
    """Raise :class:`PayloadError` unless the stored fingerprint matches the columns."""
    if str(columns["fingerprint"][0]) != fingerprint(columns):
        raise PayloadError(f"{where} fingerprint mismatch (corrupted file?)")


def write_columns(path: Union[str, Path], columns: Mapping[str, np.ndarray], raw: bool) -> Path:
    """Store ``columns`` at exactly ``path``: an ``.npz`` archive, or with ``raw`` a directory.

    In a raw directory each column becomes ``<name>.npy`` (``:`` spelled
    ``__``) and the :data:`HEADER_KEYS` become plain values of
    ``meta.json``, which is written last.  Every file goes through
    :func:`atomic_write`.
    """
    path = Path(path)
    if not raw:
        return atomic_write(path, lambda handle: np.savez(handle, **columns))
    path.mkdir(parents=True, exist_ok=True)
    meta: dict = {}
    files: dict[str, str] = {}
    for key, value in columns.items():
        if key in HEADER_KEYS:
            meta[key] = value[0].item()
            continue
        name = key.replace(":", "__") + ".npy"
        atomic_write(path / name, lambda handle, value=value: np.save(handle, np.ascontiguousarray(value)))
        files[key] = name
    meta["arrays"] = files
    atomic_write(path / RAW_META_NAME, json.dumps(meta, indent=1))
    # Column files of an earlier save that the new meta.json does not name go
    # now; another writer's temporary files are left to it.
    named = set(files.values())
    for stale in path.glob("*.npy"):
        if stale.name not in named and not stale.name.startswith(".tmp-"):
            stale.unlink(missing_ok=True)
    return path


def read_columns(path: Union[str, Path], mmap: bool = False) -> dict[str, np.ndarray]:
    """Every column stored at ``path`` by :func:`write_columns`.

    A raw directory's columns are loaded, or with ``mmap`` memory-mapped
    read-only; its header values come back as one-element arrays, as an
    archive stores them.  An ``.npz`` archive is read whole and cannot be
    mapped.  A missing ``path`` raises ``FileNotFoundError``; any other
    failure raises :class:`PayloadError`.
    """
    path = Path(path)
    if path.is_dir():
        try:
            meta = json.loads((path / RAW_META_NAME).read_text(encoding="utf-8"))
            files = meta.pop("arrays")
            columns = {key: _header_column(value) for key, value in meta.items()}
            for key, name in files.items():
                if Path(name).name != name:
                    raise ValueError(f"column file {name!r} is outside the directory")
                columns[key] = np.load(path / name, mmap_mode="r" if mmap else None, allow_pickle=False)
        except Exception as error:  # numpy and json raise many types on bad bytes
            raise PayloadError(f"unreadable raw columns at {path}: {error}") from error
        return columns
    if mmap:
        raise ValueError(f"{path} is an .npz archive, which cannot be memory-mapped; save the raw layout")
    with open(path, "rb") as handle:
        try:
            with np.load(handle, allow_pickle=False) as archive:
                return {key: archive[key] for key in archive.files}
        except Exception as error:  # zipfile, zlib and numpy's header parser raise a dozen types
            raise PayloadError(f"unreadable column archive at {path}: {error}") from error


@contextlib.contextmanager
def decoding(what: str) -> Iterator[None]:
    """Raise the errors of decoding a malformed ``what`` as :class:`PayloadError`."""
    try:
        yield
    except PayloadError:
        raise
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as error:
        raise PayloadError(f"malformed {what}: {error}") from error


def read_json(path: Union[str, Path], what: str):
    """The JSON document ``what`` stored at ``path``.

    A missing file raises ``FileNotFoundError``; bytes that are not UTF-8
    JSON raise :class:`PayloadError`.
    """
    text = Path(path).read_bytes()
    with decoding(f"{what} at {path}"):
        return json.loads(text.decode("utf-8"))


def _header_column(value) -> np.ndarray:
    """A ``meta.json`` header value as the one-element array an archive would hold."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"header value {value!r} is neither an integer nor a string")
    return np.asarray([value], dtype=np.int64 if isinstance(value, int) else None)
