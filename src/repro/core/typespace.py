"""The TypeSpace and its type map (Sec. 4.2).

After training, the encoder ``e(·)`` maps symbols to type embeddings but
does not itself know any types.  The *type map* ``τ_map`` pairs the
embeddings of symbols with **known** types (the markers) with those types;
prediction is then a k-nearest-neighbour query against the markers (Eq. 5).

Because the map is data, not parameters, it can be extended at any time with
new types — including types never seen during training — which is how
Typilus supports an open type vocabulary without retraining.

The space answers whole query batches at once: :meth:`TypeSpace.nearest_batch`
returns dense arrays of type codes and distances (one row per query) backed
by the vectorized index, which is what the batched predictor and the project
annotation engine consume.

Storage is **columnar and incremental**: markers live in one growable
embedding matrix plus a parallel int64 type-code array over an interned
vocabulary — there is no per-marker object graph.  Adding markers *extends*
the matrix, the code array and (when already built) the nearest-neighbour
index in place, at a cost proportional to the extension; nothing is
invalidated wholesale, which is what keeps long-lived serving and one-shot
type adaptation cheap.  Markers, queries and distances are float64.

On disk the map is the same columns — the matrix, the type and source
codes, the vocabulary and distinct sources as packed UTF-8 — in the one container
(:mod:`repro.utils.columns`): an ``.npz`` archive, or a raw directory whose
``embeddings.npy`` every serving process maps read-only.  Nothing is
pickled, every file is replaced atomically, and an eager load verifies the
stored fingerprint.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.knn import BatchNeighbourResult, ExactL1Index
from repro.utils.columns import (
    RAW_META_NAME,
    PayloadError,
    decoding,
    fingerprint,
    pack_strings,
    read_columns,
    unpack_strings,
    verify_fingerprint,
    write_columns,
)

#: Version of the stored type-map columns (:meth:`TypeSpace.save`).
TYPESPACE_FORMAT_VERSION = 1


@dataclass
class TypeMarker:
    """One entry of the type map: an embedding labelled with its true type."""

    type_name: str
    embedding: np.ndarray
    source: str = ""  # provenance (filename / split), useful for analysis


@dataclass
class TypeNeighbourBatch:
    """The ``k`` nearest markers of a query batch, as dense arrays.

    ``type_codes`` is ``(num_queries, k)`` int64 indexing into
    ``type_vocabulary``, ``distances`` the matching L1 distances and
    ``counts`` the per-row column count.  As with
    :class:`~repro.core.knn.BatchNeighbourResult` there is no padding: an
    empty space yields zero-width arrays, otherwise every column is valid.
    """

    type_codes: np.ndarray
    distances: np.ndarray
    counts: np.ndarray
    type_vocabulary: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.type_codes)

    def row(self, position: int) -> list[tuple[str, float]]:
        count = int(self.counts[position])
        return [
            (self.type_vocabulary[int(code)], float(distance))
            for code, distance in zip(self.type_codes[position, :count], self.distances[position, :count])
        ]


class TypeSpace:
    """A columnar collection of type markers plus a nearest-neighbour index.

    The marker embeddings form one ``(num_markers, dim)`` matrix in growable
    storage, the marker types one int64 code array over an interned
    vocabulary.  :meth:`add_marker` / :meth:`add_markers` append to both and
    extend the spatial index in place when it has been built — repeated
    additions cost O(extension), not O(markers).  :meth:`save` and
    :meth:`load` persist exactly these columns (npz or raw layout), and a
    loaded space adopts the stored arrays, mapped or not.
    """

    #: The dtype of the markers, of the queries and of their distances.
    dtype = np.dtype(np.float64)

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._embeddings = np.empty((0, dim))  # growable row storage
        self._size = 0
        self._codes = np.empty(0, dtype=np.int64)  # growable, parallel to the rows
        self._sources: list[str] = []
        self._vocabulary: dict[str, int] = {}  # interned type name → code
        self._vocabulary_list: list[str] = []  # code → type name
        self._index: Optional[ExactL1Index] = None
        # Vocabulary-derived caches, rebuilt lazily only when a *new* type
        # name appears (O(num_types), independent of the marker count).
        self._vocabulary_tuple: Optional[tuple[str, ...]] = None
        self._vocabulary_array: Optional[np.ndarray] = None
        self._name_ranks: Optional[np.ndarray] = None

    # -- population ----------------------------------------------------------------

    def _intern(self, type_name: str) -> int:
        code = self._vocabulary.get(type_name)
        if code is None:
            code = len(self._vocabulary)
            self._vocabulary[type_name] = code
            self._vocabulary_list.append(type_name)
            # The vocabulary grew: views over it are stale (the marker
            # columns and the index are not — they only ever extend).
            self._vocabulary_tuple = None
            self._vocabulary_array = None
            self._name_ranks = None
        return code

    def _append_rows(self, embeddings: np.ndarray, codes: np.ndarray, sources: Sequence[str]) -> None:
        needed = self._size + len(embeddings)
        if needed > len(self._embeddings):
            capacity = max(needed, 2 * len(self._embeddings), 16)
            storage = np.empty((capacity, self.dim))
            storage[: self._size] = self._embeddings[: self._size]
            self._embeddings = storage
            code_storage = np.empty(capacity, dtype=np.int64)
            code_storage[: self._size] = self._codes[: self._size]
            self._codes = code_storage
        self._embeddings[self._size : needed] = embeddings
        self._codes[self._size : needed] = codes
        self._sources.extend(sources)
        self._size = needed
        if self._index is not None:
            self._index.extend(self._embeddings[needed - len(embeddings) : needed])

    def add_marker(self, type_name: str, embedding: np.ndarray, source: str = "") -> None:
        embedding = np.asarray(embedding, dtype=np.float64).reshape(-1)
        if embedding.shape[0] != self.dim:
            raise ValueError(f"marker dimension {embedding.shape[0]} does not match TypeSpace dim {self.dim}")
        self._append_rows(
            embedding.reshape(1, -1),
            np.asarray([self._intern(type_name)], dtype=np.int64),
            [source],
        )

    def add_markers(
        self,
        type_names: Sequence[str],
        embeddings: np.ndarray,
        source: Union[str, Sequence[str]] = "",
    ) -> None:
        """Append many markers in one shot.

        This is the bulk path: the rows are copied into storage once, the
        codes interned in one pass and the index (when built) extended with a
        single call — never once per marker.  ``source`` may be one shared
        provenance string or a per-marker sequence.
        """
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2 or embeddings.shape[1] != self.dim:
            raise ValueError(
                f"embeddings must be a (num_markers, {self.dim}) array, got shape {embeddings.shape}"
            )
        if len(type_names) != len(embeddings):
            raise ValueError("type_names and embeddings must have the same length")
        if isinstance(source, str):
            sources: Sequence[str] = [source] * len(embeddings)
        else:
            sources = list(source)
            if len(sources) != len(embeddings):
                raise ValueError("per-marker sources must match the number of markers")
        if not len(embeddings):
            return
        codes = np.fromiter(
            (self._intern(type_name) for type_name in type_names), dtype=np.int64, count=len(type_names)
        )
        self._append_rows(embeddings, codes, sources)

    # -- queries ----------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def markers(self) -> list[TypeMarker]:
        """The markers as a list of objects (a view for analysis/tests)."""
        return [
            TypeMarker(
                type_name=self._vocabulary_list[self._codes[position]],
                embedding=self._embeddings[position],
                source=self._sources[position],
            )
            for position in range(self._size)
        ]

    def marker_type_names(self) -> list[str]:
        """Per-marker type names (decoded from the columnar code array)."""
        vocabulary = self._vocabulary_list
        return [vocabulary[code] for code in self._codes[: self._size]]

    def marker_sources(self) -> list[str]:
        """Per-marker provenance strings."""
        return list(self._sources)

    def known_types(self) -> set[str]:
        return set(self._vocabulary)

    def type_counts(self) -> Counter:
        counts = np.bincount(self._codes[: self._size], minlength=len(self._vocabulary_list))
        return Counter(
            {name: int(count) for name, count in zip(self._vocabulary_list, counts) if count}
        )

    def marker_matrix(self) -> np.ndarray:
        """The ``(num_markers, dim)`` embedding matrix (a view, not a copy)."""
        return self._embeddings[: self._size]

    @property
    def is_memory_mapped(self) -> bool:
        """Whether the marker matrix is a read-only map of the on-disk file.

        True only for a raw-layout :meth:`load` with ``mmap=True`` that has
        not yet grown: the first :meth:`add_markers` promotes the matrix to
        private writable storage and this becomes False.  Serving processes
        use it to prove (not assume) that N workers share one physical copy.
        """
        return isinstance(self._embeddings, np.memmap)

    @property
    def marker_nbytes(self) -> int:
        """Bytes held by the marker matrix (file-backed bytes when mapped)."""
        return int(self.marker_matrix().nbytes)

    def type_vocabulary(self) -> tuple[str, ...]:
        """Distinct marker types in first-seen order (the code space of queries)."""
        if self._vocabulary_tuple is None:
            self._vocabulary_tuple = tuple(self._vocabulary_list)
        return self._vocabulary_tuple

    def marker_type_codes(self) -> np.ndarray:
        """Per-marker integer codes into :meth:`type_vocabulary`."""
        return self._codes[: self._size]

    def type_vocabulary_array(self) -> np.ndarray:
        """The vocabulary as a cached numpy object array (code → name)."""
        if self._vocabulary_array is None:
            self._vocabulary_array = np.asarray(self._vocabulary_list, dtype=object)
        return self._vocabulary_array

    def type_name_ranks(self) -> np.ndarray:
        """Alphabetical rank of each type code, cached for tie-breaking."""
        if self._name_ranks is None:
            vocabulary = self.type_vocabulary_array()
            ranks = np.empty(len(vocabulary), dtype=np.int64)
            ranks[np.argsort(vocabulary, kind="stable")] = np.arange(len(vocabulary))
            self._name_ranks = ranks
        return self._name_ranks

    def index(self) -> ExactL1Index:
        """The exact kNN index over the markers (built lazily, then extended)."""
        if self._index is None:
            self._index = ExactL1Index(self.marker_matrix())
        return self._index

    def nearest(self, embedding: np.ndarray, k: int) -> list[tuple[str, float]]:
        """The ``k`` nearest markers of ``embedding``: ``(type, L1 distance)``."""
        return self.nearest_batch(np.asarray(embedding).reshape(1, -1), k).row(0)

    def nearest_batch(self, embeddings: np.ndarray, k: int) -> TypeNeighbourBatch:
        """Nearest markers of a whole query batch in one vectorized index call."""
        result: BatchNeighbourResult = self.index().query_batch_arrays(embeddings, k)
        return TypeNeighbourBatch(
            type_codes=self.marker_type_codes()[result.indices],
            distances=result.distances,
            counts=result.counts,
            type_vocabulary=self.type_vocabulary(),
        )

    # -- persistence -------------------------------------------------------------------

    def save(self, path: str, layout: str = "npz") -> str:
        """Persist the markers at exactly ``path`` and return it.

        The map is one column set of :mod:`repro.utils.columns`: the float64
        ``embeddings``, the int64 type and source codes, the vocabulary and
        the distinct sources as packed UTF-8, ``dim``, a format header and a
        fingerprint.
        ``layout="npz"`` writes one ``.npz`` archive; ``layout="raw"`` makes
        ``path`` a directory of ``.npy`` columns whose ``embeddings.npy``
        :meth:`load` can memory-map.  Every file is replaced atomically, so a
        re-save never pulls pages from under a process that mapped the map.
        """
        if layout not in ("npz", "raw"):
            raise ValueError(f"unknown TypeSpace layout {layout!r}: valid layouts are npz, raw")
        columns = _columns(self.marker_matrix(), self.marker_type_names(), self._sources, self.dim)
        columns["fingerprint"] = np.asarray([fingerprint(columns)])
        write_columns(path, columns, raw=layout == "raw")
        if layout == "raw":  # the pickled half of a map saved before the column container
            (Path(path) / "markers.npz").unlink(missing_ok=True)
        return path

    @classmethod
    def load(cls, path: str, mmap: bool = False) -> "TypeSpace":
        """Restore a space saved with :meth:`save` (either layout) by adopting its columns.

        An eager load verifies the fingerprint.  With ``mmap=True`` (raw
        layout only) the marker matrix is memory-mapped read-only — no copy,
        and concurrent loaders share its pages — and the fingerprint, which
        would page in the whole matrix, is skipped; shapes and the code range
        are checked either way, and a corrupt map raises
        :class:`~repro.utils.columns.PayloadError`.  The first
        :meth:`add_markers` on a mapped space promotes the matrix to private
        writable storage.  Maps saved before the column container load too; a
        float32 matrix is copied to float64.
        """
        source = Path(path)
        columns = _legacy_columns(source, mmap)
        verify = columns is None and not mmap
        if columns is None:
            columns = read_columns(source, mmap=mmap)
        where = f"TypeSpace at {source}"
        with decoding(where):
            version = int(columns["format"][0])
            if version != TYPESPACE_FORMAT_VERSION:
                raise PayloadError(f"unsupported {where} version {version!r}")
            if verify:
                verify_fingerprint(columns, where)
            dim = int(columns["dim"][0])
            embeddings = columns["embeddings"]
            codes = np.ascontiguousarray(columns["codes"], dtype=np.int64)
            source_codes = columns["sourcecodes"].tolist()
            vocabulary = unpack_strings(columns["vocabbytes"], columns["vocabsplits"])
            source_table = unpack_strings(columns["sourcebytes"], columns["sourcesplits"])
            consistent = (
                embeddings.shape == (len(codes), dim)
                and len(source_codes) == len(codes)
                and len(set(vocabulary)) == len(vocabulary)
                and (not len(codes) or 0 <= codes.min() <= codes.max() < len(vocabulary))
                and (not source_codes or 0 <= min(source_codes) <= max(source_codes) < len(source_table))
            )
        if not consistent:
            raise PayloadError(f"{where} is inconsistent: embeddings {embeddings.shape}, {len(codes)} type codes")
        space = cls(dim)
        for name in vocabulary:
            space._intern(name)
        # Adopt the arrays as-is: the (possibly memory-mapped, read-only)
        # matrix becomes the row storage with zero copies.  Growth reallocates
        # (len == size, so any extension exceeds capacity), which is exactly
        # the copy-on-extend promotion a mapped space needs.
        space._embeddings = embeddings if embeddings.dtype == np.float64 else np.array(embeddings, dtype=np.float64)
        space._codes = codes
        space._sources = [source_table[code] for code in source_codes]
        space._size = len(codes)
        return space


def _columns(embeddings: np.ndarray, type_names: Sequence[str], sources: Sequence[str], dim) -> dict:
    """The stored columns of a map, without the fingerprint; a mapped matrix stays mapped.

    Types and sources are each stored as a table of distinct strings plus one
    code per marker, so a loaded map holds one string per distinct source.
    """
    columns = {
        "format": np.asarray([TYPESPACE_FORMAT_VERSION], dtype=np.int64),
        "dim": np.asarray([dim], dtype=np.int64),
        "embeddings": embeddings,
    }
    for codes, table, values in (("codes", "vocab", type_names), ("sourcecodes", "source", sources)):
        code_of = {text: code for code, text in enumerate(dict.fromkeys(values))}
        columns[f"{table}bytes"], columns[f"{table}splits"] = pack_strings(list(code_of))
        columns[codes] = np.fromiter((code_of[text] for text in values), dtype=np.int64, count=len(values))
    return columns


def _legacy_columns(path: Path, mmap: bool) -> Optional[dict]:
    """The columns of a map saved before the column container, or ``None`` for any other path.

    Those maps are an ``.npz`` archive with per-marker ``type_names`` and
    ``sources`` as pickled object arrays, or a raw directory without a
    ``meta.json``: an ``embeddings.npy`` (float64, or float32 from older
    versions) beside a ``markers.npz`` with the codes and the pickled
    vocabulary and sources.  This adapter is the only reader in the program
    that unpickles.
    """
    directory = path.is_dir()
    markers = path / "markers.npz" if directory else path
    if not markers.is_file() or (directory and (path / RAW_META_NAME).exists()) or (mmap and not directory):
        return None
    try:
        with np.load(markers, allow_pickle=True) as archive:
            if directory:
                embeddings = np.load(path / "embeddings.npy", mmap_mode="r" if mmap else None)
                vocabulary = [str(name) for name in archive["vocabulary"]]
                names = [vocabulary[code] for code in archive["codes"].tolist()]
            elif "type_names" in archive.files:
                names = [str(name) for name in archive["type_names"]]
                embeddings = archive["embeddings"].reshape(len(names), int(archive["dim"][0]))
            else:
                return None
            return _columns(embeddings, names, [str(text) for text in archive["sources"]], archive["dim"][0])
    except Exception as error:  # zipfile, numpy and pickle raise many types on bad bytes
        raise PayloadError(f"unreadable TypeSpace at {path}: {error}") from error
