"""Interaction ingestion, 8:1:1 splitting, bipartite graph construction
with train degrees, negative sampling, and triplet batch streaming.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import logging
import os
import re
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

FEATURE_MAGIC = b"MDVTFEAT"

# (user, draw) pairs tested per has_edge call while sampling negatives.
NEGATIVE_WINDOW = 64


@dataclass(frozen=True)
class Adjacency:
    """Row->item CSR: row ``r``'s items are
    ``indices[indptr[r]:indptr[r + 1]]``, also read as ``adjacency[r]``.

    A split's user->item CSR keeps each row's items ascending; a ranking
    (``evaluator.top_k``, virtual groups) keeps them in rank order.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_lengths(cls, lengths: np.ndarray,
                     indices: np.ndarray) -> "Adjacency":
        return cls(np.concatenate(([0], np.cumsum(lengths))), indices)

    def __getitem__(self, row: int) -> np.ndarray:
        return self.indices[self.indptr[row]:self.indptr[row + 1]]

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def entry_rows(self) -> np.ndarray:
        """The row of every entry of ``indices``."""
        return np.repeat(np.arange(len(self)), self.row_lengths)

    def take(self, rows: np.ndarray) -> "Adjacency":
        """The CSR of ``rows`` (an index array), in that order."""
        indptr, at = gather_rows(self.indptr[rows], self.row_lengths[rows])
        return Adjacency(indptr, self.indices[at])

    def head(self, lengths: np.ndarray) -> "Adjacency":
        """Each row's first ``lengths[r]`` entries."""
        indptr, at = gather_rows(self.indptr[:-1], lengths)
        return Adjacency(indptr, self.indices[at])


def gather_rows(starts: np.ndarray, lengths: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, positions)`` of the CSR whose row ``r`` is the
    ``lengths[r]`` entries of a source CSR from position ``starts[r]``."""
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    return indptr, (np.repeat(starts - indptr[:-1], lengths)
                    + np.arange(indptr[-1]))


@dataclass
class InteractionSet:
    """Deduplicated implicit-feedback records over dense user/item indices:
    record ``k`` is ``(users[k], items[k])``, both int64 arrays.

    Split views share ``num_users``/``num_items`` and the id tables of the
    full set, so indices are comparable across train/val/test.
    """

    users: np.ndarray
    items: np.ndarray
    num_users: int
    num_items: int
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    duplicates_dropped: int = 0

    def __len__(self) -> int:
        return len(self.users)

    @cached_property
    def item_index(self) -> dict[str, int]:
        return {raw: k for k, raw in enumerate(self.item_ids)}

    def view(self, users: np.ndarray, items: np.ndarray) -> "InteractionSet":
        """A subset sharing this set's id space."""
        return InteractionSet(users, items, self.num_users, self.num_items,
                              self.user_ids, self.item_ids)

    @cached_property
    def adjacency(self) -> Adjacency:
        """The records as a CSR; raises DataError on an index outside
        ``[0, num_users)`` / ``[0, num_items)``."""
        for role, idx, bound in (("user", self.users, self.num_users),
                                 ("item", self.items, self.num_items)):
            bad = (idx < 0) | (idx >= bound)
            if bad.any():
                raise DataError(f"{role} index {int(idx[bad][0])} outside "
                                f"[0, {bound})")
        # In range, (user, item) order is the order of these keys.
        keys = np.sort(self.users * self.num_items + self.items)
        users, items = np.divmod(keys, self.num_items)
        indptr = np.searchsorted(users, np.arange(self.num_users + 1))
        return Adjacency(indptr, items)


@dataclass
class DatasetSplit:
    """Train/validation/test views plus the seed that produced them."""

    train: InteractionSet
    validation: InteractionSet
    test: InteractionSet
    split_seed: int

    @cached_property
    def trained_users(self) -> np.ndarray:
        """Users with a train record, ascending: the users trained and
        evaluated. The others are cold."""
        return np.flatnonzero(self.train.adjacency.row_lengths)

    @cached_property
    def train_and_validation(self) -> Adjacency:
        """Train plus validation records as a CSR: the test ranking mask."""
        train, val = self.train, self.validation
        return train.view(np.concatenate([train.users, val.users]),
                          np.concatenate([train.items, val.items])).adjacency

    @property
    def num_users(self) -> int:
        return self.train.num_users

    @property
    def num_items(self) -> int:
        return self.train.num_items


@dataclass
class InteractionGraph:
    """Bipartite train graph over the union vertex set (users then items):
    the train set's user->item CSR plus the degree of every vertex, which
    is its train interaction count."""

    num_users: int
    num_items: int
    adjacency: Adjacency
    degrees: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.num_users + self.num_items

    @property
    def isolated_items(self) -> np.ndarray:
        return np.flatnonzero(self.degrees[self.num_users:] == 0)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(user, item) index arrays of every edge, in CSR order."""
        return self.adjacency.entry_rows, self.adjacency.indices

    @cached_property
    def _edge_bits(self) -> np.ndarray:
        """A packed ``num_users x num_items`` bitset of the edges: bit
        ``k % 8`` of byte ``k // 8`` is set for key ``k = user *
        num_items + item``."""
        users, items = self.edges()
        keys = users * self.num_items + items
        bits = np.zeros((self.num_users * self.num_items + 7) // 8, np.uint8)
        np.bitwise_or.at(bits, keys >> 3, (1 << (keys & 7)).astype(np.uint8))
        return bits

    def has_edge(self, user, item):
        """Whether (user, item) is a train edge, elementwise over arrays."""
        keys = np.asarray(user, dtype=np.int64) * self.num_items + item
        return (self._edge_bits[keys >> 3] >> (keys & 7)) & 1 == 1


@dataclass(frozen=True)
class TripletBatch:
    """(user, observed item, sampled negative item) index triples."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


def load_interactions(path: str | Path) -> InteractionSet:
    """Parse a ``user<TAB>item`` text file into a dense-indexed set.

    Raw ids are remapped in first-appearance order. Duplicate pairs are
    dropped and counted, each pair keeping its first occurrence. Lines
    starting with ``#`` and blank lines are ignored, and each line is
    stripped of surrounding whitespace.
    """
    path = Path(path)
    data = _read_bytes(path)
    text = _decode(path, data).replace("\r\n", "\n").replace("\r", "\n")
    if (_is_pair_lines(data) and not data.startswith(b"#")
            and b"\n#" not in data
            and (data.isascii() or not _OTHER_SPACE.search(text))):
        # Nothing to strip or skip: every line is exactly two fields.
        fields = text[:-1].replace("\n", "\t").split("\t")
        user_raw, item_raw = fields[0::2], fields[1::2]
    else:
        user_raw, item_raw = _interaction_lines(path, text)
    if not user_raw:
        raise DataError(f"{path}: no interaction records")
    users, user_ids = _first_appearance(user_raw)
    items, item_ids = _first_appearance(item_raw)
    keys = users * len(item_ids) + items
    ordered = np.sort(keys)
    duplicates = int(np.count_nonzero(ordered[1:] == ordered[:-1]))
    if duplicates:
        keep = np.sort(np.unique(keys, return_index=True)[1])
        users, items = users[keep], items[keep]
        log.info("dropped %d duplicate interactions from %s", duplicates, path)
    return InteractionSet(users, items, len(user_ids), len(item_ids),
                          user_ids, item_ids, duplicates_dropped=duplicates)


# Whitespace that str.strip() removes, other than tab and newline.
_OTHER_SPACE = re.compile(r"[^\S\t\n]")


def _is_pair_lines(data: bytes) -> bool:
    """Whether ``data`` is lines of two non-empty fields split by one tab,
    each line ending in a newline, with no other byte below ``!`` (no
    space, carriage return or other control byte)."""
    if not data.endswith(b"\n"):
        return False
    raw = np.frombuffer(data, dtype=np.uint8)
    cuts = np.flatnonzero(raw < 33)
    # The last cut is the final newline, so alternation means pairs.
    return bool(np.all(raw[cuts[0::2]] == 9) and np.all(raw[cuts[1::2]] == 10)
                and np.all(np.diff(cuts, prepend=-1) > 1))


def _interaction_lines(path: Path, text: str) -> tuple[list[str], list[str]]:
    """The raw (user, item) ids of ``text``'s records, line by line: the
    general path for comments, blank lines and surrounding whitespace."""
    users, items = [], []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(
                f"{path}:{lineno}: expected 'user<TAB>item', got {line!r}")
        users.append(parts[0])
        items.append(parts[1])
    return users, items


def _first_appearance(raw: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Dense indices of ``raw`` numbered in first-appearance order, and the
    distinct ids in that order."""
    index = dict(zip(dict.fromkeys(raw), itertools.count()))
    return (np.fromiter(map(index.__getitem__, raw), dtype=np.int64,
                        count=len(raw)), tuple(index))


def split_dataset(interactions: InteractionSet, seed: int) -> DatasetSplit:
    """Shuffle records by seed and slice test/val/train as round(0.1*N) /
    round(0.1*N) / remainder.

    Users that end up with zero train records are kept in their val/test
    views but reported as cold; they are excluded from training and from
    metric averaging downstream.
    """
    if seed < 0:
        raise ConfigError(f"split seed must be >= 0 (got {seed})")
    n = len(interactions)
    if n < 10:
        raise DataError(f"need at least 10 interactions to split, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_hold = int(round(0.1 * n))
    test, val, train = (
        interactions.view(interactions.users[k], interactions.items[k])
        for k in (perm[:n_hold], perm[n_hold:2 * n_hold], perm[2 * n_hold:]))
    split = DatasetSplit(train=train, validation=val, test=test,
                         split_seed=seed)
    if cold := split.num_users - len(split.trained_users):
        log.warning("%d users have no train records after splitting", cold)
    return split


def build_graph(train: InteractionSet) -> InteractionGraph:
    """Bidirectional bipartite graph of the train records, with degrees."""
    if len(train) == 0:
        raise DataError("cannot build a graph from an empty train set")
    adjacency = train.adjacency
    degrees = np.concatenate([
        adjacency.row_lengths,
        np.bincount(adjacency.indices, minlength=train.num_items),
    ])
    graph = InteractionGraph(num_users=train.num_users,
                             num_items=train.num_items,
                             adjacency=adjacency, degrees=degrees)
    if graph.isolated_items.size:
        log.warning("%d items have no train edge", graph.isolated_items.size)
    return graph


def sample_negatives(users: np.ndarray, graph: InteractionGraph,
                     rng: np.random.Generator) -> np.ndarray:
    """One uniformly sampled non-interacted item per entry of ``users``.

    Replays per-entry rejection sampling (one ``rng.integers(num_items)``
    per attempt until the item is not a train edge) exactly: a block of k
    draws equals k scalar draws, and a window of (entry, draw) pairs is
    tested at once, the draws after its first rejection shifting to the
    next entry. So the negatives and the final generator state match.
    """
    users = np.asarray(users, dtype=np.int64)
    full = graph.degrees[users] >= graph.num_items
    if full.any():
        raise DataError(f"user {int(users[full][0])} interacted with every "
                        "item; no negative candidates")
    n = len(users)
    out = np.empty(n, dtype=np.int64)
    draws = np.empty(0, dtype=np.int64)
    done = 0
    while done < n:
        width = min(NEGATIVE_WINDOW, n - done)
        if len(draws) < width:  # each remaining entry needs >= 1 more draw
            more = rng.integers(graph.num_items, size=n - done - len(draws))
            draws = np.concatenate([draws, more])
        hits = np.flatnonzero(graph.has_edge(users[done:done + width],
                                             draws[:width]))
        take = int(hits[0]) if hits.size else width
        out[done:done + take] = draws[:take]
        done += take
        draws = draws[take + min(hits.size, 1):]
    return out


def make_batches(train: InteractionSet, graph: InteractionGraph,
                 batch_size: int, rng: np.random.Generator,
                 negative_rng: np.random.Generator):
    """One epoch of triplet batches: shuffled positives in ceil(N/B) slices,
    each positive paired with a freshly sampled negative.
    """
    n = len(train)
    perm = rng.permutation(n)
    users = train.users[perm]
    items = train.items[perm]
    for start in range(0, n, batch_size):
        u = users[start:start + batch_size]
        p = items[start:start + batch_size]
        yield TripletBatch(users=u, pos_items=p,
                           neg_items=sample_negatives(u, graph, negative_rng))


# ---------------------------------------------------------------------------
# Matrix record, the whole of a feature file and each checkpoint table:
#   bytes 0-7   magic b"MDVTFEAT"
#   bytes 8-11  row count, unsigned 32-bit little-endian
#   bytes 12-15 column count, unsigned 32-bit little-endian
#   then rows*cols IEEE-754 float32 little-endian, row-major
# A raw feature file's row order follows an optional sidecar "<path>.ids"
# listing raw item ids one per line; rows are remapped to dense item order
# at load. Without a sidecar (always in a bundle) rows are in dense order.
# ---------------------------------------------------------------------------

def pack_matrix(matrix: np.ndarray) -> bytes:
    """``matrix`` as one record in the format above."""
    mat = np.ascontiguousarray(matrix, dtype="<f4")
    if mat.ndim != 2:
        raise DataError(f"feature matrix must be 2-D, got shape {mat.shape}")
    return FEATURE_MAGIC + struct.pack("<II", *mat.shape) + mat.tobytes()


def read_matrix(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """The record at ``offset`` of ``buf``, as a read-only view, and the
    offset after it. Raises ValueError naming the fault: a bad magic, a
    record longer than the buffer, no columns or a non-finite value."""
    if buf[offset:offset + 8] != FEATURE_MAGIC or len(buf) < offset + 16:
        raise ValueError("bad magic")
    rows, cols = struct.unpack_from("<II", buf, offset + 8)
    end = offset + 16 + 4 * rows * cols
    if end > len(buf):
        raise ValueError(f"expected {end - offset} bytes for {rows}x{cols}, "
                         f"got {len(buf) - offset}")
    if cols == 0:
        raise ValueError("no feature columns")
    mat = np.frombuffer(buf, "<f4", rows * cols, offset + 16)
    if (bad := np.flatnonzero(~np.isfinite(mat))).size:
        raise ValueError(f"non-finite value at {divmod(int(bad[0]), cols)}")
    return mat.reshape(rows, cols), end


def load_modality_features(path: str | Path, modality: str, num_items: int,
                           item_index: dict[str, int]) -> np.ndarray:
    """Read and validate a raw feature matrix for ``modality``.

    Returns a float32 array with exactly ``num_items`` rows in dense item
    order; ``item_index`` maps a sidecar's raw item ids to that order.
    Raises DataError on a malformed record (see
    :func:`read_matrix`), bytes after it, a row-count mismatch, or a
    sidecar that is not UTF-8 or names an unknown or repeated item.
    """
    path = Path(path)
    sidecar = Path(str(path) + ".ids")
    if not sidecar.exists():
        return _read_features(path, _read_bytes(path), modality, num_items)
    mat = _read_features(path, _read_bytes(path), modality, None)
    rows, cols = mat.shape
    text = _decode(sidecar, _read_bytes(sidecar))
    numbered = [(n, raw) for n, raw in enumerate(text.replace(
        "\r\n", "\n").replace("\r", "\n").split("\n"), start=1) if raw]
    if len(numbered) != rows:
        raise DataError(f"{sidecar}: {len(numbered)} ids for {rows} rows")
    dense_row = np.fromiter((item_index.get(raw, -1) for _, raw in numbered),
                            dtype=np.int64, count=rows)
    if (dense_row < 0).any():
        raise DataError(f"{sidecar}: unknown item id "
                        f"{numbered[int(np.argmax(dense_row < 0))][1]!r}")
    repeated = np.ones(rows, dtype=bool)
    repeated[np.unique(dense_row, return_index=True)[1]] = False
    if repeated.any():
        lineno, raw = numbered[int(np.argmax(repeated))]
        raise DataError(f"{sidecar}:{lineno}: duplicate item id {raw!r}")
    missing = np.setdiff1d(np.arange(num_items), dense_row)
    if missing.size:
        raise DataError(f"{path}: no feature row for {missing.size} items "
                        f"(first dense index {int(missing[0])})")
    dense = np.empty((num_items, cols), dtype=np.float32)
    dense[dense_row] = mat
    return dense


def _read_features(path: Path, blob: bytes, modality: str,
                   num_items: int | None) -> np.ndarray:
    """The one matrix record that is the whole of ``blob``, the bytes of
    feature file ``path``: a copy with ``num_items`` rows, or a read-only
    view of any row count if ``num_items`` is None."""
    try:
        mat, end = read_matrix(blob)
        if end != len(blob):
            raise ValueError(f"{len(blob) - end} bytes after the record")
    except ValueError as exc:
        raise DataError(f"{path}: {exc} in modality {modality!r}") from None
    if num_items not in (None, len(mat)):
        raise DataError(f"{path}: {len(mat)} feature rows but {num_items} "
                        "items")
    return mat if num_items is None else mat.copy()


def check_feature_name(name: str) -> str:
    """``name``, if it may name a feature modality, whose bundle file is
    ``features/<name>.feat``; ValueError if not."""
    if name in ("", "id") or {"\0", "/", os.sep} & set(name):
        raise ValueError(f'a feature name is not "id" (implicit), empty or '
                         f"holding a path separator or NUL, got {name!r}")
    return name


# ---------------------------------------------------------------------------
# Prepared dataset bundle on disk: id tables, split TSVs, dense-order
# feature files, and a stats.json whose bytes fingerprint the bundle.
# ---------------------------------------------------------------------------

@dataclass
class DatasetBundle:
    """Everything a training run consumes."""

    split: DatasetSplit
    graph: InteractionGraph
    # Item feature matrices, ``(num_items, width)``, by modality name.
    features: dict[str, np.ndarray]
    stats: dict
    # SHA-256 of the bundle files as load_bundle read them; a checkpoint
    # stores it. Empty for a bundle built in memory.
    fingerprint: str = ""
    # Propagation operators by norm mode, built once (trainer.propagator).
    propagators: dict = field(default_factory=dict, repr=False,
                              compare=False)

    @property
    def num_users(self) -> int:
        return self.split.num_users

    @property
    def num_items(self) -> int:
        return self.split.num_items

    @property
    def modalities(self) -> tuple[str, ...]:
        """Modality names: "id" (no feature matrix), then ``features``."""
        return ("id", *self.features)


def _bundle_stats(split: DatasetSplit, features: dict[str, np.ndarray],
                  duplicates_dropped: int) -> dict:
    full = len(split.train) + len(split.validation) + len(split.test)
    nu, ni = split.num_users, split.num_items
    return {
        "format_version": 1,
        "num_users": nu,
        "num_items": ni,
        "num_interactions": full,
        "sparsity": 1.0 - full / (nu * ni),
        "duplicates_dropped": duplicates_dropped,
        "split_seed": split.split_seed,
        "split_sizes": {
            "train": len(split.train),
            "validation": len(split.validation),
            "test": len(split.test),
        },
        "cold_users": nu - len(split.trained_users),
        "modalities": {"id": 0, **{m: int(f.shape[1])
                                   for m, f in features.items()}},
    }


def _write_tsv(path: Path, part: InteractionSet) -> None:
    # One format call over all pairs: half the time of a join of per-line
    # formats, with the same bytes.
    pairs = np.column_stack([part.users, part.items]).ravel().tolist()
    path.write_bytes(("%d\t%d\n" * len(part) % tuple(pairs)).encode("ascii"))


def _read_bytes(path: Path) -> bytes:
    """A file's bytes; DataError if missing or unreadable."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None


def _decode(path: Path, data: bytes) -> str:
    """The bytes of ``path`` as UTF-8 text, newlines as they are; DataError
    if they are not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: "
                        f"{exc.reason})") from None


# A split file line as _write_tsv writes it, leading zeros aside.
_SPLIT_LINE = re.compile(rb"0*([0-9]{1,19})\t0*([0-9]{1,19})\n")


def _read_split(path: Path, data: bytes, base: InteractionSet
                ) -> InteractionSet:
    """A split TSV's bytes as a view of ``base``; building its CSR here
    checks every index against the id tables. A repeated line is an error:
    it would count its edge twice.

    The file must be in the form :func:`_write_tsv` writes: lines of two
    ASCII-decimal indices within int64, one tab between them and ``\\n``
    after. Such bytes are parsed in one pass; otherwise one scan names the
    first line outside the form.
    """
    try:
        if data.translate(None, b"0123456789\t\n") or not _is_pair_lines(
                data):
            raise ValueError
        pairs = np.loadtxt(io.BytesIO(data), dtype=np.int64,
                           delimiter="\t", comments=None, ndmin=2)
    except ValueError:  # out of form, an index beyond int64 or empty
        _decode(path, data)  # the first byte that is not UTF-8 comes first
        for lineno, line in enumerate(re.findall(rb".*\n|.+", data), 1):
            fields = _SPLIT_LINE.fullmatch(line)
            if not fields or max(map(int, fields.groups())) >= 2**63:
                raise DataError(f"{path}:{lineno}: expected 'user<TAB>item"
                                f"\\n' indices, got {line.decode()!r}")
        pairs = np.zeros((0, 2), dtype=np.int64)  # only an empty file is left
    users, items = np.ascontiguousarray(pairs.T)
    part = base.view(users, items)
    try:
        adj = part.adjacency
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    keys = adj.entry_rows * part.num_items + adj.indices  # ascending
    if np.any(keys[1:] == keys[:-1]):
        first = np.unique(users * part.num_items + items, return_index=True)[1]
        k = int(np.setdiff1d(np.arange(len(users)), first)[0])  # line k + 1
        raise DataError(f"{path}:{k + 1}: duplicate interaction "
                        f"(user {users[k]}, item {items[k]})")
    return part


def save_bundle(out_dir: str | Path, split: DatasetSplit,
                features: dict[str, np.ndarray], duplicates_dropped: int = 0
                ) -> dict:
    """Write a prepared bundle; rerunning with identical inputs is
    byte-identical (no timestamps). ``stats.json`` is removed first and
    written last: a write that stops midway leaves no loadable bundle."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "stats.json").unlink(missing_ok=True)
    full = split.train
    # Bytes, not text mode, so that no platform turns "\n" into "\r\n".
    (out / "users.txt").write_bytes(
        "".join(f"{u}\n" for u in full.user_ids).encode("utf-8"))
    (out / "items.txt").write_bytes(
        "".join(f"{i}\n" for i in full.item_ids).encode("utf-8"))
    _write_tsv(out / "train.tsv", split.train)
    _write_tsv(out / "val.tsv", split.validation)
    _write_tsv(out / "test.tsv", split.test)
    feat_dir = out / "features"
    if features:
        feat_dir.mkdir(exist_ok=True)
    for name, mat in features.items():
        (feat_dir / f"{name}.feat").write_bytes(pack_matrix(mat))
    stats = _bundle_stats(split, features, duplicates_dropped)
    write_atomic(out / "stats.json",
                 json.dumps(stats, sort_keys=True, indent=2) + "\n")
    return stats


def load_bundle(bundle_dir: str | Path) -> DatasetBundle:
    """Load a bundle written by :func:`save_bundle`, reading each file
    once and only in the form it writes; the fingerprint is computed from
    the bytes read. ``stats.json`` must hold what ``save_bundle`` would
    write for the files read, so the bundle's stats are checked facts."""
    root = Path(bundle_dir)
    stats_path = root / "stats.json"
    if not stats_path.exists():
        raise DataError(f"not a dataset bundle (missing stats.json): {root}")
    blobs: dict[str, bytes] = {}

    def read(name: str) -> bytes:
        blobs[name] = _read_bytes(root / name)
        return blobs[name]

    stats_text = _decode(stats_path, read("stats.json"))
    try:
        stats = json.loads(stats_text)
        expected = (stats["num_users"], stats["num_items"])
        names = sorted(map(check_feature_name,
                           stats["modalities"].keys() - {"id"}))
        split_seed = stats["split_seed"]
        duplicates = stats["duplicates_dropped"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{stats_path}: malformed ({exc!r})") from None
    user_ids, item_ids = (
        tuple(_decode(root / name, read(name)).split("\n")[:-1])
        for name in ("users.txt", "items.txt"))
    nu, ni = len(user_ids), len(item_ids)
    if (nu, ni) != expected:
        raise DataError(f"{root}: id tables disagree with stats.json")
    empty = np.zeros(0, dtype=np.int64)
    base = InteractionSet(empty, empty, nu, ni, user_ids, item_ids)
    train, val, test = (
        _read_split(root / name, read(name), base)
        for name in ("train.tsv", "val.tsv", "test.tsv"))
    features = {name: _read_features(root / "features" / f"{name}.feat",
                                     read(f"features/{name}.feat"), name, ni)
                for name in names}
    split = DatasetSplit(train, val, test, split_seed=split_seed)
    # Compared as JSON text, so that neither 1.0 nor true passes for 1.
    got, want = ({key: json.dumps(value, sort_keys=True)
                  for key, value in facts.items()}
                 for facts in (stats, _bundle_stats(split, features,
                                                    duplicates)))
    if wrong := sorted({key for key, _ in got.items() ^ want.items()}):
        raise DataError(f"{stats_path}: disagrees with the bundle files on "
                        f"{', '.join(wrong)}")
    return DatasetBundle(split=split, graph=build_graph(train),
                         features=features, stats=stats,
                         fingerprint=_fingerprint(blobs))


def _fingerprint(blobs: dict[str, bytes]) -> str:
    """Identity hash of the bundle files ``load_bundle`` read (``blobs``):
    stats.json, the split files, the id tables and the feature files
    stats.json names (sorted by path), in that order, each hashed as its
    name, byte length and bytes."""
    names = ["stats.json", "train.tsv", "val.tsv", "test.tsv", "users.txt",
             "items.txt"]
    names += sorted(name for name in blobs if name.startswith("features/"))
    digest = hashlib.sha256()
    for name in names:
        data = blobs[name]
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8") + data)
    return digest.hexdigest()


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write ``path`` through a temporary file in the same directory and
    ``os.replace``: a reader, or a run killed midway, sees the old file or
    the new one, never a torn one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str)
                        else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
