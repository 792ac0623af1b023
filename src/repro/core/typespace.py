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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.knn import (
    BatchNeighbourResult,
    NearestNeighbourIndex,
    build_index,
    validate_index_params,
)


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
    additions cost O(extension), not O(markers).
    """

    #: The dtype of the markers, of the queries and of their distances.
    dtype = np.dtype(np.float64)

    def __init__(
        self,
        dim: int,
        index_kind: str = "exact",
        index_params: Optional[dict] = None,
    ) -> None:
        self.dim = dim
        # ``index_kind`` ("exact" | "ivf") and its params are validated now,
        # with the indexes' own constructor checks, not at the first query.
        self.index_kind = index_kind
        self.index_params = dict(index_params or {})
        validate_index_params(self.index_kind, dim, **self.index_params)
        self._embeddings = np.empty((0, dim))  # growable row storage
        self._size = 0
        self._codes = np.empty(0, dtype=np.int64)  # growable, parallel to the rows
        self._sources: list[str] = []
        self._vocabulary: dict[str, int] = {}  # interned type name → code
        self._vocabulary_list: list[str] = []  # code → type name
        self._index: Optional[NearestNeighbourIndex] = None
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

    def index(self) -> NearestNeighbourIndex:
        """The spatial index over the markers (built lazily, then extended)."""
        if self._index is None:
            self._index = build_index(
                self.marker_matrix(), kind=self.index_kind, **self.index_params
            )
        return self._index

    def reindex(self, index_kind: str, **index_params) -> None:
        """Switch the index kind/params; the new index builds lazily on the next query.

        This is how a loaded serving pipeline swaps its exact scan for an IVF
        index (``space.reindex("ivf", nlist=256, nprobe=8)``) without touching
        the markers.  Parameters are validated immediately.
        """
        validate_index_params(index_kind, self.dim, **index_params)
        self.index_kind = index_kind
        self.index_params = dict(index_params)
        self._index = None

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
        """Persist the markers.

        ``layout="npz"`` (the historical default) writes one ``.npz`` archive
        with per-marker type-name strings.  ``layout="raw"`` treats ``path``
        as a directory and writes the serving layout: the marker matrix as a
        raw ``embeddings.npy`` (loadable with ``mmap_mode="r"``, so a
        million-marker map opens without copying into every process) next to
        a columnar ``markers.npz`` (int64 type codes + interned vocabulary +
        sources).
        """
        if layout == "npz":
            np.savez(
                path,
                embeddings=self.marker_matrix(),
                type_names=np.asarray(self.marker_type_names(), dtype=object),
                sources=np.asarray(self._sources, dtype=object),
                dim=np.asarray([self.dim]),
            )
            return path
        if layout == "raw":
            directory = Path(path)
            directory.mkdir(parents=True, exist_ok=True)
            np.save(directory / "embeddings.npy", np.ascontiguousarray(self.marker_matrix()))
            np.savez(
                directory / "markers.npz",
                codes=self.marker_type_codes(),
                vocabulary=np.asarray(self._vocabulary_list, dtype=object),
                sources=np.asarray(self._sources, dtype=object),
                dim=np.asarray([self.dim]),
            )
            return path
        raise ValueError(f"unknown TypeSpace layout {layout!r}: valid layouts are npz, raw")

    @classmethod
    def load(
        cls,
        path: str,
        index_kind: str = "exact",
        index_params: Optional[dict] = None,
        mmap: bool = False,
    ) -> "TypeSpace":
        """Restore a space saved with :meth:`save` in one bulk load.

        An ``.npz`` archive restores with a single :meth:`add_markers` call,
        so the storage is allocated once and the index is built at most once
        — never once per marker.  A raw-layout directory adopts its arrays
        directly; with ``mmap=True`` the marker matrix is memory-mapped
        read-only (``mmap_mode="r"``) — no full-matrix copy, and concurrent
        loaders share the same physical pages.  The first
        :meth:`add_markers` on a mapped space promotes the matrix to private
        writable storage (one copy, the on-disk file is never touched).  A
        file stored in another dtype (float32) is copied to float64 instead.
        """
        source = Path(path)
        if source.is_dir():
            return cls._load_raw(source, index_kind, index_params, mmap)
        if mmap:
            raise ValueError(
                "mmap=True needs the raw directory layout (save(path, layout='raw')); "
                "zip-compressed .npz archives cannot be memory-mapped"
            )
        with np.load(path, allow_pickle=True) as archive:
            dim = int(archive["dim"][0])
            embeddings = archive["embeddings"]
            space = cls(dim, index_kind=index_kind, index_params=index_params)
            type_names = [str(name) for name in archive["type_names"]]
            sources = [str(source) for source in archive["sources"]]
            space.add_markers(type_names, embeddings.reshape(len(type_names), dim), source=sources)
        return space

    @classmethod
    def _load_raw(
        cls,
        directory: Path,
        index_kind: str,
        index_params: Optional[dict],
        mmap: bool,
    ) -> "TypeSpace":
        """Adopt a raw-layout directory's arrays (optionally memory-mapped)."""
        embeddings = np.load(directory / "embeddings.npy", mmap_mode="r" if mmap else None)
        with np.load(directory / "markers.npz", allow_pickle=True) as archive:
            dim = int(archive["dim"][0])
            codes = np.ascontiguousarray(archive["codes"], dtype=np.int64)
            vocabulary = [str(name) for name in archive["vocabulary"]]
            sources = [str(source) for source in archive["sources"]]
        if embeddings.ndim != 2 or embeddings.shape != (len(codes), dim):
            raise ValueError(
                f"raw TypeSpace at {directory} is inconsistent: embeddings shape "
                f"{embeddings.shape} does not match {len(codes)} markers of dim {dim}"
            )
        if len(codes) and codes.max(initial=-1) >= len(vocabulary):
            raise ValueError(f"raw TypeSpace at {directory} has codes outside its vocabulary")
        space = cls(dim, index_kind=index_kind, index_params=index_params)
        for name in vocabulary:
            space._intern(name)
        # Adopt the arrays as-is: the (possibly memory-mapped, read-only)
        # matrix becomes the row storage with zero copies.  Growth reallocates
        # (len == size, so any extension exceeds capacity), which is exactly
        # the copy-on-extend promotion a mapped space needs.
        space._embeddings = embeddings if embeddings.dtype == np.float64 else np.array(embeddings, dtype=np.float64)
        space._codes = codes
        space._sources = sources
        space._size = len(codes)
        return space
