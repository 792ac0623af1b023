"""Graph and dataset serialization: column shards + JSON payloads.

Two consumers share these helpers:

* the content-addressed :class:`~repro.corpus.ingest.GraphCache`, which
  persists one extracted :class:`~repro.graph.flatgraph.FlatGraph` per
  source file so unchanged files are never re-parsed;
* sharded dataset persistence (:meth:`TypeAnnotationDataset.save` /
  :meth:`~repro.corpus.dataset.TypeAnnotationDataset.load`), which writes a
  whole assembled dataset — splits, samples, registry, vocabulary, lattice —
  to a directory that reloads in milliseconds.

**One column layout.**  A graph shard concatenates the
:class:`FlatGraph` columns of its graphs — the interned string tables, an
``int32`` node block, one edge block per kind, a symbol block and the
occurrence CSR pair — with per-graph split arrays
(:func:`flat_graphs_to_arrays`).  Its header holds the format version, the
graph count and a fingerprint: the SHA-256 over the shard's columns.
Datasets persist graphs only; node features are a pure function of a graph
and the vocabulary, computed through the graph's intern table whenever a
batch is built.

**Two containers.**  A shard is stored either as an ``.npz`` archive or as
a raw directory of plain ``.npy`` files whose ``meta.json`` holds the header
and is written last (:class:`RawColumns`, which can memory-map the
columns).  The decoder sees either one as a mapping of column names to
arrays.

**One decoder, validation on every read.**  :class:`GraphShard` is the
only code that builds a :class:`FlatGraph` from shard columns: it slices
out one graph at a time and runs :meth:`FlatGraph.validate` on it, so an
out-of-range kind code or string id raises :class:`PayloadError` through
every reader (:func:`read_graph_shard`, :func:`read_graph_shard_raw`, the
graph cache, :class:`RawGraphShard`).  The eager readers first check the
format version and then the fingerprint, so a truncated or bit-flipped
shard is rejected whole; a memory-mapped :class:`RawGraphShard` skips the
fingerprint, which would page in the whole shard.

**Legacy JSON payloads.**  The original dict-of-lists layout remains fully
readable *and* writable (``shard_format="json"``), diffable and
language-neutral.  :func:`graph_from_payload` decodes a payload straight
into the same ``int32`` columns and runs :meth:`FlatGraph.validate`, so a
malformed payload — an index out of range, an unknown kind, a wrong type, a
short row, a value past ``int32`` — raises :class:`PayloadError` and
nothing else.  Dataset directories written before the binary format load
unchanged.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.corpus.dedup import DeduplicationReport, DuplicateCluster
from repro.graph.edges import ALL_EDGE_KINDS, EdgeKind
from repro.graph.flatgraph import (
    NO_ANNOTATION,
    NODE_KIND_CODES,
    NODE_KIND_ORDER,
    SYMBOL_KIND_CODES,
    FlatGraph,
    StringTable,
)
from repro.graph.nodes import NodeKind, SymbolKind
from repro.graph.subtokens import SubtokenVocabulary
from repro.types.lattice import TypeLattice
from repro.types.registry import TypeRegistry

#: Version of the graph payload layout; part of every cache key, so bumping
#: it (or :data:`repro.corpus.ingest.EXTRACTOR_VERSION`) invalidates caches.
GRAPH_PAYLOAD_VERSION = 1

#: Version of the graph-shard column layout (``.npz`` and raw alike).
GRAPH_SHARD_FORMAT_VERSION = 1


class PayloadError(ValueError):
    """Raised when a payload cannot be decoded back into an object."""


# ---------------------------------------------------------------------------
# JSON graph payloads
# ---------------------------------------------------------------------------


def graph_to_payload(graph: FlatGraph) -> dict[str, Any]:
    """Encode a graph as a JSON-compatible dictionary."""
    strings = graph.strings
    nodes = [
        [NODE_KIND_ORDER[kind].value, strings[text], line, col]
        for kind, text, line, col in zip(
            graph.node_kind.tolist(),
            graph.node_text.tolist(),
            graph.node_line.tolist(),
            graph.node_col.tolist(),
        )
    ]
    return {
        "version": GRAPH_PAYLOAD_VERSION,
        "filename": graph.filename,
        "source": graph.source,
        "nodes": nodes,
        "edges": {kind.value: pairs.T.tolist() for kind, pairs in graph.edges.items()},
        "symbols": [
            [
                symbol.node_index,
                symbol.name,
                symbol.kind.value,
                symbol.scope,
                symbol.annotation,
                symbol.lineno,
                list(symbol.occurrence_indices),
            ]
            for symbol in graph.symbols
        ],
    }


def _text(value: Any) -> str:
    if not isinstance(value, str):
        raise PayloadError(f"expected a string in graph payload, got {type(value).__name__}")
    return value


def _rows(value: Any, width: int, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(row, list) and len(row) == width for row in value):
        raise PayloadError(f"graph payload {what} must be a list of {width}-item lists")
    return value


def _int32(values: list, what: str) -> np.ndarray:
    """``values`` as a 1-D ``int32`` array, rejecting anything it would not hold exactly.

    NumPy silently truncates floats, parses numeric strings and stacks
    nested lists; comparing the array back against the payload turns those
    into errors.  Values past ``int32`` raise ``OverflowError``.
    """
    column = np.asarray(values, dtype=np.int32)
    if column.ndim != 1 or column.tolist() != values:
        raise PayloadError(f"graph payload {what} must be integers")
    return column


def graph_from_payload(payload: dict[str, Any], filename: Optional[str] = None) -> FlatGraph:
    """Decode a graph payload into columns; ``filename`` overrides the stored name.

    The override is what makes graph caching content-addressed: a file moved
    or copied to a new path reuses the cached graph under its new name.
    Strings are interned in the graph builder's order (node texts, then each
    symbol's name, scope and annotation).
    """
    try:
        if payload["version"] != GRAPH_PAYLOAD_VERSION:
            raise PayloadError(f"unsupported graph payload version {payload['version']!r}")
        nodes = _rows(payload["nodes"], 4, "nodes")
        symbols = _rows(payload["symbols"], 7, "symbols")
        table = StringTable()
        intern = table.intern
        node_kind = [NODE_KIND_CODES[NodeKind(row[0])] for row in nodes]
        node_text = [intern(_text(row[1])) for row in nodes]
        names, kinds, scopes, annotations, counts = [], [], [], [], []
        for _, name, kind, scope, annotation, _, occurrences in symbols:
            names.append(intern(_text(name)))
            kinds.append(SYMBOL_KIND_CODES[SymbolKind(kind)])
            scopes.append(intern(_text(scope)))
            annotations.append(NO_ANNOTATION if annotation is None else intern(_text(annotation)))
            if not isinstance(occurrences, list):
                raise PayloadError("graph payload symbol occurrences must be a list")
            counts.append(len(occurrences))
        occurrence_splits = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=occurrence_splits[1:])
        graph = FlatGraph(
            filename=_text(payload["filename"] if filename is None else filename),
            source=_text(payload["source"]),
            strings=tuple(table.strings),
            node_kind=np.asarray(node_kind, dtype=np.int32),
            node_text=np.asarray(node_text, dtype=np.int32),
            node_line=_int32([row[2] for row in nodes], "node lines"),
            node_col=_int32([row[3] for row in nodes], "node columns"),
            edges={
                EdgeKind(kind): _int32([node for pair in _rows(pairs, 2, "edges") for node in pair], "edges")
                .reshape(-1, 2)
                .T.copy()
                for kind, pairs in payload["edges"].items()
            },
            symbol_node=_int32([row[0] for row in symbols], "symbol nodes"),
            symbol_name=np.asarray(names, dtype=np.int32),
            symbol_kind=np.asarray(kinds, dtype=np.int32),
            symbol_scope=np.asarray(scopes, dtype=np.int32),
            symbol_annotation=np.asarray(annotations, dtype=np.int32),
            symbol_line=_int32([row[5] for row in symbols], "symbol lines"),
            occurrence_ids=_int32([index for row in symbols for index in row[6]], "occurrences"),
            occurrence_splits=occurrence_splits,
        )
        graph.validate()
    except PayloadError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as error:
        raise PayloadError(f"malformed graph payload: {error}") from error
    return graph


# ---------------------------------------------------------------------------
# Binary FlatGraph shards
# ---------------------------------------------------------------------------


def _string_array(strings: Sequence[str]) -> np.ndarray:
    """Unicode array of ``strings`` (empty sequences need an explicit dtype)."""
    if not strings:
        return np.zeros(0, dtype="<U1")
    return np.asarray(list(strings))


def _shard_fingerprint(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's dtype-tagged bytes, in sorted key order.

    ``x:``-prefixed keys are ancillary (callers may attach them after the
    fingerprint is computed, e.g. the graph cache's extractor version) and
    are excluded, as is the fingerprint itself.
    """
    digest = hashlib.sha256()
    for key in sorted(arrays):
        if key == "fingerprint" or key.startswith("x:"):
            continue
        value = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8") + b"\x00")
        digest.update(str(value.dtype).encode("utf-8") + b"\x00")
        digest.update(value.tobytes())
    return digest.hexdigest()


def _pack_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Pack strings into a ``uint8`` UTF-8 blob + ``int64`` offset array."""
    parts = [text.encode("utf-8") for text in strings]
    splits = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([len(part) for part in parts], out=splits[1:])
    blob = b"".join(parts)
    return np.frombuffer(blob, dtype=np.uint8).copy(), splits


def _unpack_strings(blob: np.ndarray, offsets: list[int]) -> list[str]:
    """The strings between consecutive ``offsets`` into a packed ``blob``."""
    base = offsets[0]
    raw = np.asarray(blob[base : offsets[-1]]).tobytes()
    return [raw[lo - base : hi - base].decode("utf-8") for lo, hi in zip(offsets, offsets[1:])]


def _counts_splits(counts: Sequence[int]) -> np.ndarray:
    splits = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=splits[1:])
    return splits


def flat_graphs_to_arrays(graphs: Sequence[FlatGraph]) -> dict[str, np.ndarray]:
    """Encode columnar graphs as one ``np.savez``-ready array dictionary.

    The shard itself is columnar: every graph's columns are concatenated
    into one array per column, with ``(G + 1)``-length split arrays
    recording per-graph boundaries — the archive holds a couple of dozen
    arrays total regardless of how many graphs it contains (per-entry zip
    and header costs dominate ``.npz`` handling of many small arrays).

    Columns: ``strbytes``/``strsplits``/``strgraph`` (all intern tables as
    one UTF-8 blob + per-string and per-graph offsets), ``metabytes``/
    ``metasplits`` (filename and source per graph, interleaved), ``nodes``
    ``(4, ΣN)`` + ``nodesplits``, one ``edges:<kind>`` ``(2, ΣE_k)`` +
    ``edgesplits:<kind>`` pair per edge kind present anywhere in the shard,
    ``symbols`` ``(6, ΣS)`` + ``symsplits``, and the occurrence values
    ``occ`` with per-symbol counts ``occcounts`` (per-graph CSR splits are
    rebuilt from the counts on load).  A shard-level ``fingerprint`` array
    holds the SHA-256 of all content arrays.
    """
    num_graphs = len(graphs)
    all_strings: list[str] = []
    meta: list[str] = []
    strings_per_graph: list[int] = []
    for flat in graphs:
        all_strings.extend(flat.strings)
        strings_per_graph.append(len(flat.strings))
        meta.extend((flat.filename, flat.source))
    strbytes, strsplits = _pack_strings(all_strings)
    metabytes, metasplits = _pack_strings(meta)

    def concat32(pieces: list[np.ndarray], axis: int, empty_shape: tuple) -> np.ndarray:
        if not pieces:
            return np.zeros(empty_shape, dtype=np.int32)
        return np.concatenate(pieces, axis=axis).astype(np.int32, copy=False)

    arrays: dict[str, np.ndarray] = {
        "format": np.asarray([GRAPH_SHARD_FORMAT_VERSION], dtype=np.int64),
        "num_graphs": np.asarray([num_graphs], dtype=np.int64),
        "strbytes": strbytes,
        "strsplits": strsplits,
        "strgraph": _counts_splits(strings_per_graph),
        "metabytes": metabytes,
        "metasplits": metasplits,
        "nodes": concat32(
            [
                np.stack([flat.node_kind, flat.node_text, flat.node_line, flat.node_col])
                for flat in graphs
            ],
            axis=1,
            empty_shape=(4, 0),
        ),
        "nodesplits": _counts_splits([flat.num_nodes for flat in graphs]),
        "symbols": concat32(
            [
                np.stack(
                    [
                        flat.symbol_node,
                        flat.symbol_name,
                        flat.symbol_kind,
                        flat.symbol_scope,
                        flat.symbol_annotation,
                        flat.symbol_line,
                    ]
                )
                for flat in graphs
            ],
            axis=1,
            empty_shape=(6, 0),
        ),
        "symsplits": _counts_splits([flat.num_symbols for flat in graphs]),
        "occ": concat32([flat.occurrence_ids for flat in graphs], axis=0, empty_shape=(0,)),
        "occcounts": concat32(
            [np.diff(flat.occurrence_splits) for flat in graphs], axis=0, empty_shape=(0,)
        ),
    }
    for kind in ALL_EDGE_KINDS:
        pieces = [flat.edges[kind] for flat in graphs if kind in flat.edges]
        if not pieces:
            continue
        arrays[f"edges:{kind.value}"] = concat32(pieces, axis=1, empty_shape=(2, 0))
        arrays[f"edgesplits:{kind.value}"] = _counts_splits(
            [flat.edge_array(kind).shape[1] for flat in graphs]
        )
    arrays["fingerprint"] = _string_array([_shard_fingerprint(arrays)])
    return arrays


class GraphShard:
    """The one decoder of the graph-shard columns of :func:`flat_graphs_to_arrays`.

    ``columns`` is any mapping of those columns: an ``np.load``-ed ``.npz``
    archive, a plain dict or a :class:`RawColumns` directory, loaded or
    memory-mapped.  The constructor checks the format version, then — with
    ``verify`` — the fingerprint over every column, and reads only the
    graph-boundary columns; the content columns are kept as given, so mapped
    columns stay mapped.  :meth:`graph` slices one graph out of them and
    runs :meth:`FlatGraph.validate` on it.  Every failure raises
    :class:`PayloadError`.
    """

    def __init__(self, columns: Mapping[str, np.ndarray], where: str = "graph shard", verify: bool = True) -> None:
        self.where = where
        try:
            version = int(columns["format"][0])
            if version != GRAPH_SHARD_FORMAT_VERSION:
                raise PayloadError(f"unsupported {where} version {version!r}")
            arrays = {key: np.asarray(columns[key]) for key in columns}
            if verify and str(arrays["fingerprint"][0]) != _shard_fingerprint(arrays):
                raise PayloadError(f"{where} fingerprint mismatch (corrupted shard?)")
            self.num_graphs = int(arrays["num_graphs"][0])
            self._arrays = arrays
            self._strsplits = arrays["strsplits"]
            self._occsplits = _counts_splits(arrays["occcounts"])
            self._strgraph = arrays["strgraph"].tolist()
            self._metasplits = arrays["metasplits"].tolist()
            self._nodesplits = arrays["nodesplits"].tolist()
            self._symsplits = arrays["symsplits"].tolist()
            self._edges = [
                (kind, arrays[f"edges:{kind.value}"], arrays[f"edgesplits:{kind.value}"].tolist())
                for kind in ALL_EDGE_KINDS
                if f"edges:{kind.value}" in arrays
            ]
        except PayloadError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, OSError) as error:
            raise PayloadError(f"malformed {where}: {error}") from error
        expected = self.num_graphs + 1
        bounds = [self._strgraph, self._nodesplits, self._symsplits, *(splits for _, _, splits in self._edges)]
        if any(len(splits) != expected for splits in bounds) or len(self._metasplits) != 2 * expected - 1:
            raise PayloadError(f"{where}: graph-boundary columns disagree with {self.num_graphs} graphs")

    def graph(self, index: int) -> FlatGraph:
        """Graph ``index``, validated; its array fields are slices of the columns."""
        if not 0 <= index < self.num_graphs:
            raise IndexError(f"graph index {index} out of range for shard of {self.num_graphs}")
        arrays = self._arrays
        nodes = arrays["nodes"]
        symbols = arrays["symbols"]
        node_lo, node_hi = self._nodesplits[index : index + 2]
        sym_lo, sym_hi = self._symsplits[index : index + 2]
        str_lo, str_hi = self._strgraph[index : index + 2]
        try:
            edges: dict[EdgeKind, np.ndarray] = {}
            for kind, column, splits in self._edges:
                lo, hi = splits[index : index + 2]
                if hi > lo:
                    edges[kind] = column[:, lo:hi]
            filename, source = _unpack_strings(arrays["metabytes"], self._metasplits[2 * index : 2 * index + 3])
            occurrence_splits = self._occsplits[sym_lo : sym_hi + 1]
            graph = FlatGraph(
                filename=filename,
                source=source,
                strings=tuple(_unpack_strings(arrays["strbytes"], self._strsplits[str_lo : str_hi + 1].tolist())),
                node_kind=nodes[0, node_lo:node_hi],
                node_text=nodes[1, node_lo:node_hi],
                node_line=nodes[2, node_lo:node_hi],
                node_col=nodes[3, node_lo:node_hi],
                edges=edges,
                symbol_node=symbols[0, sym_lo:sym_hi],
                symbol_name=symbols[1, sym_lo:sym_hi],
                symbol_kind=symbols[2, sym_lo:sym_hi],
                symbol_scope=symbols[3, sym_lo:sym_hi],
                symbol_annotation=symbols[4, sym_lo:sym_hi],
                symbol_line=symbols[5, sym_lo:sym_hi],
                occurrence_ids=arrays["occ"][occurrence_splits[0] : occurrence_splits[-1]],
                occurrence_splits=(occurrence_splits - occurrence_splits[0]).astype(np.int32),
            )
            graph.validate()
        except (TypeError, ValueError, IndexError) as error:
            raise PayloadError(f"malformed graph {index} in {self.where}: {error}") from error
        return graph

    def graphs(self) -> list[FlatGraph]:
        return [self.graph(index) for index in range(self.num_graphs)]


def flat_graphs_from_arrays(archive: Mapping[str, np.ndarray]) -> list[FlatGraph]:
    """Decode every graph of :func:`flat_graphs_to_arrays` output, fingerprint checked.

    ``archive`` is any column mapping (see :class:`GraphShard`).  Raises
    :class:`PayloadError` on unknown versions, missing arrays, fingerprint
    mismatches or an invalid graph — never returns a partially decoded
    shard.  Per-graph arrays are zero-copy slices of the shard columns.
    """
    return GraphShard(archive).graphs()


def write_graph_shard(path, graphs: Sequence[FlatGraph]) -> None:
    """Write graphs to a binary ``.npz`` shard at ``path``."""
    arrays = flat_graphs_to_arrays(graphs)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def read_graph_shard(path) -> list[FlatGraph]:
    """Read a binary shard back as :class:`FlatGraph` objects."""
    with np.load(path, allow_pickle=False) as archive:
        return GraphShard(archive, f"graph shard at {path}").graphs()


# ---------------------------------------------------------------------------
# Raw column directories (zero-copy, memory-mappable)
# ---------------------------------------------------------------------------

#: Commit marker and header of a raw shard directory; written last,
#: so a directory without it is an aborted write, not a corrupt dataset.
RAW_META_NAME = "meta.json"

#: Header entries of a shard: one-element arrays in an ``.npz`` archive,
#: plain values in a raw directory's ``meta.json``.
_HEADER_KEYS = ("format", "num_graphs", "fingerprint")


class RawColumns(Mapping):
    """A raw directory read like an ``np.load``-ed ``.npz`` archive.

    ``meta.json`` names each column's ``.npy`` file and holds the header,
    which this mapping serves as one-element arrays, as an archive stores
    it.  A column is read when looked up: memory-mapped read-only with
    ``mmap``, else loaded.
    """

    def __init__(self, path, mmap: bool = False) -> None:
        self.path = Path(path)
        try:
            meta = json.loads((self.path / RAW_META_NAME).read_text(encoding="utf-8"))
            self._header = {
                "format": np.asarray([int(meta["format"])], dtype=np.int64),
                "num_graphs": np.asarray([int(meta["num_graphs"])], dtype=np.int64),
                "fingerprint": _string_array([str(meta["fingerprint"])]),
            }
            self._files = dict(meta["arrays"])
        except (OSError, ValueError, KeyError, TypeError) as error:
            raise PayloadError(f"cannot read raw metadata at {self.path}: {error}") from error
        self._mode = "r" if mmap else None

    def __getitem__(self, key: str) -> np.ndarray:
        if key in self._header:
            return self._header[key]
        return np.load(self.path / self._files[key], mmap_mode=self._mode, allow_pickle=False)

    def __iter__(self) -> Iterator[str]:
        return iter([*self._header, *self._files])

    def __len__(self) -> int:
        return len(self._header) + len(self._files)


def write_graph_shard_raw(path, graphs: Sequence[FlatGraph]) -> None:
    """Write graphs as a raw shard *directory*: one ``.npy`` file per column, ``meta.json`` last.

    Same columnar arrays as the ``.npz`` shard (see
    :func:`flat_graphs_to_arrays`), but each stored as a plain ``.npy`` so
    loaders can ``np.load(..., mmap_mode="r")`` them — pages stream in on
    access instead of the whole archive inflating into every process.
    """
    arrays = flat_graphs_to_arrays(graphs)
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    names: dict[str, str] = {}
    for key, value in arrays.items():
        if key in _HEADER_KEYS:
            continue
        name = key.replace(":", "__") + ".npy"
        np.save(directory / name, np.ascontiguousarray(value))
        names[key] = name
    meta = {
        "format": int(arrays["format"][0]),
        "num_graphs": int(arrays["num_graphs"][0]),
        "fingerprint": str(arrays["fingerprint"][0]),
        "arrays": names,
    }
    (directory / RAW_META_NAME).write_text(json.dumps(meta, indent=1), encoding="utf-8")


def read_graph_shard_raw(path) -> list[FlatGraph]:
    """Eagerly read a raw shard directory: the same checks and decoder as an ``.npz`` shard."""
    return GraphShard(RawColumns(path), f"raw graph shard at {path}").graphs()


class RawGraphShard(GraphShard):
    """A raw shard directory, memory-mapped read-only and decoded on demand.

    Only the graph-boundary columns are read up front; :meth:`graph` touches
    one graph's pages.  The fingerprint is not verified — that would page in
    the entire shard — but every graph handed out has passed
    :meth:`FlatGraph.validate`; :func:`read_graph_shard_raw` verifies it.
    """

    def __init__(self, path) -> None:
        super().__init__(RawColumns(path, mmap=True), f"raw graph shard at {path}", verify=False)


class LazyGraphStore:
    """Hands out :class:`FlatGraph` objects on demand across raw shards.

    An LRU bounded **by bytes**, not entry count, keeps recently used graphs
    (one training batch touches each graph once, so the working set is the
    batch, not the corpus); everything else lives only as mapped pages until
    asked for again.  An entry-count bound lets a run over unusually large
    files blow past any memory budget — counting decoded bytes
    (:attr:`FlatGraph.nbytes`) keeps the cache's footprint fixed whatever
    the file-size distribution, and a single graph larger than the whole
    budget is returned uncached rather than evicting everything else.
    """

    #: Default decode-cache budget; comfortably holds a training batch of
    #: typical graphs while staying small next to the mapped shards.
    DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

    def __init__(self, shards: Sequence[GraphShard], cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")
        self._shards = list(shards)
        self._starts = _counts_splits([shard.num_graphs for shard in self._shards])
        self._cache: OrderedDict[int, tuple[FlatGraph, int]] = OrderedDict()
        self._cache_bytes = cache_bytes
        self._cached_bytes = 0
        self._evictions = 0

    def __len__(self) -> int:
        return int(self._starts[-1]) if len(self._starts) else 0

    @property
    def cache_bytes(self) -> int:
        """The configured decode-cache budget in bytes."""
        return self._cache_bytes

    @property
    def cached_bytes(self) -> int:
        """Decoded bytes currently held by the cache (always ≤ the budget)."""
        return self._cached_bytes

    @property
    def evictions(self) -> int:
        """How many cached graphs the byte bound has evicted."""
        return self._evictions

    def graph(self, index: int) -> FlatGraph:
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached[0]
        shard_index = int(np.searchsorted(self._starts, index, side="right")) - 1
        local = index - int(self._starts[shard_index])
        graph = self._shards[shard_index].graph(local)
        cost = graph.nbytes
        if cost > self._cache_bytes:
            # Caching this graph would evict the entire working set for one
            # entry; hand it out uncached instead.
            return graph
        self._cache[index] = (graph, cost)
        self._cached_bytes += cost
        while self._cached_bytes > self._cache_bytes:
            _, (_, evicted_cost) = self._cache.popitem(last=False)
            self._cached_bytes -= evicted_cost
            self._evictions += 1
        return graph


class LazyView:
    """A list-like window over an item provider.

    Stands in for the eager ``list`` a :class:`DatasetSplit` historically
    held: supports ``len``, integer indexing (negative included), iteration
    and step-1 slicing (which returns another window, not a copy) — the full
    API surface the trainer, embedder and evaluation code use.
    """

    def __init__(self, provider: Callable[[int], Any], start: int, stop: int) -> None:
        self._provider = provider
        self._start = start
        self._stop = max(start, stop)

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            return LazyView(self._provider, self._start + start, self._start + stop)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} out of range for view of {len(self)}")
        return self._provider(self._start + index)

    def __iter__(self):
        for index in range(self._start, self._stop):
            yield self._provider(index)


# ---------------------------------------------------------------------------
# Registry / vocabulary / lattice / dedup report
# ---------------------------------------------------------------------------


def registry_to_payload(registry: TypeRegistry) -> dict[str, Any]:
    """Encode a registry preserving id order *and* frequency counts."""
    return {
        "rarity_threshold": registry.rarity_threshold,
        "types": [[type_name, registry.count_of(type_name)] for type_name in registry],
    }


def registry_from_payload(payload: dict[str, Any]) -> TypeRegistry:
    registry = TypeRegistry(rarity_threshold=int(payload["rarity_threshold"]))
    # Restore by direct assignment (not ``add``): ids and Counter insertion
    # order must match the original exactly so ``classification_vocabulary``
    # breaks frequency ties identically after a round trip.
    for type_name, count in payload["types"]:
        registry._counts[type_name] = int(count)
        registry._type_to_id[type_name] = len(registry._id_to_type)
        registry._id_to_type.append(type_name)
    return registry


def subtokens_to_payload(vocabulary: SubtokenVocabulary) -> dict[str, Any]:
    return {
        "max_size": vocabulary.max_size,
        "min_count": vocabulary.min_count,
        "tokens": list(vocabulary.tokens),
    }


def subtokens_from_payload(payload: dict[str, Any]) -> SubtokenVocabulary:
    vocabulary = SubtokenVocabulary.from_tokens(payload["tokens"])
    vocabulary.max_size = max(int(payload["max_size"]), len(vocabulary.tokens))
    vocabulary.min_count = int(payload["min_count"])
    return vocabulary


def lattice_to_payload(lattice: TypeLattice) -> list[list[str]]:
    """All nominal edges of a lattice (defaults included; re-adding is idempotent)."""
    return sorted(
        [subtype, supertype]
        for subtype, supertypes in lattice._supertypes.items()
        for supertype in supertypes
    )


def lattice_from_payload(edges: list[list[str]]) -> TypeLattice:
    lattice = TypeLattice()
    lattice.add_class_hierarchy((subtype, supertype) for subtype, supertype in edges)
    return lattice


def dedup_report_to_payload(report: Optional[DeduplicationReport]) -> Optional[dict[str, Any]]:
    if report is None:
        return None
    return {
        "total_files": report.total_files,
        "removed_files": report.removed_files,
        "clusters": [[cluster.kept, list(cluster.removed)] for cluster in report.clusters],
    }


def dedup_report_from_payload(payload: Optional[dict[str, Any]]) -> Optional[DeduplicationReport]:
    if payload is None:
        return None
    return DeduplicationReport(
        total_files=int(payload["total_files"]),
        removed_files=int(payload["removed_files"]),
        clusters=[DuplicateCluster(kept=kept, removed=list(removed)) for kept, removed in payload["clusters"]],
    )
