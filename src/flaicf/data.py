"""Interaction data: parsing, k-core filtering, per-user splits, stats.

Raw files are line-delimited interactions. Three formats are recognized:

    MOVIELENS_DAT   user::item::rating::timestamp ("::" separated)
    CSV             user,item[,rating[,timestamp]]
    TSV             user<TAB>item[<TAB>...]

Only the user and item columns are used; ratings and timestamps are
ignored because all feedback is treated as implicit. Raw ids are opaque
strings mapped to dense indices in first-appearance order. Header rows
are not skipped; strip them before parsing. Files are read as UTF-8 with
universal newlines, so "\r\n" and a lone "\r" both end a line; a
byte-order mark at the start of a raw file is dropped, not read as part
of the first user id.

A raw file is parsed in one numpy pass over its bytes, with no Python
object per line: the whole file is checked as UTF-8 before any line is,
line ends and delimiters are found by position, and each id column is
numbered by sorting one uint64 key per line. Only the distinct ids
become str.

A dataset holds its interactions as one CSR pair of int64 arrays:
user u's items, ascending, are items[indptr[u]:indptr[u + 1]]. Counts,
pairs, the k-core and the split read these two arrays; the per-user list
of views, items_by_user, is made only when something indexes it.
"""

from __future__ import annotations

import codecs
import functools
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError


class DataFormatError(ValueError):
    """A raw interaction file line does not match the declared format."""


class EmptyDatasetError(ValueError):
    """Parsing or filtering left no interactions, or a split nothing to train on."""


FORMAT_DELIMITERS = {
    "MOVIELENS_DAT": "::",
    "CSV": ",",
    "TSV": "\t",
}


@dataclass
class InteractionDataset:
    """Dense-indexed implicit-feedback interactions.

    user_ids and item_ids map dense index to raw id. indptr (user_count + 1
    entries) and items are int64: user u's interacted items are
    items[indptr[u]:indptr[u + 1]], ascending. items_by_user is the same
    data as one view per user, made on first use.
    """

    user_ids: list[str]
    item_ids: list[str]
    indptr: np.ndarray
    items: np.ndarray

    @property
    def user_count(self) -> int:
        return len(self.user_ids)

    @property
    def item_count(self) -> int:
        return len(self.item_ids)

    @property
    def interaction_count(self) -> int:
        return self.items.size

    @functools.cached_property
    def items_by_user(self) -> list[np.ndarray]:
        """Each user's items, as views of items."""
        bounds = self.indptr.tolist()
        return [self.items[start:end] for start, end in zip(bounds, bounds[1:])]

    def pairs(self) -> np.ndarray:
        """All (user, item) index pairs, user-major, items ascending."""
        users = np.repeat(np.arange(self.user_count, dtype=np.int64), np.diff(self.indptr))
        return np.column_stack((users, self.items))


def _group_by_user(users: np.ndarray, items: np.ndarray, user_count: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs of parallel (user, item) index arrays as a CSR
    (indptr, items) over user_count users, each user's items ascending."""
    # One int64 key per pair sorts about 20x faster than np.lexsort on the two
    # columns (numpy 2.4 on x86-64, 120k and 1M pairs).
    span = int(items.max()) + 1 if items.size else 1
    keys = np.sort(users * span + items)
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    users, items = np.divmod(keys[new], span)
    indptr = np.zeros(user_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(users, minlength=user_count), out=indptr[1:])
    return indptr, items


# LOW_BYTES[r] keeps the low r bytes of a little-endian uint64 word.
LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(8)], dtype=np.uint64)
# Bytes compared per numpy call when a file is scanned for line ends and
# delimiters, so that the boolean temporaries stay small.
SCAN_BLOCK = 1 << 18


def parse_interactions(path, fmt: str = "MOVIELENS_DAT") -> InteractionDataset:
    """Parse a raw interaction file into a dense-indexed dataset.

    The user is a line's first field and the item its second. Duplicate
    (user, item) pairs are collapsed to the first occurrence. A file that
    is not UTF-8 raises DataFormatError naming the file; this check runs
    first, so it wins over any malformed line. Otherwise a line with too
    few fields raises DataFormatError naming the first such line.

    The file is read once as bytes and parsed with numpy, with no Python
    object per line: line ends and delimiters are found by position, and
    each id column is numbered by sorting one uint64 key per line (see
    `_field_keys`). Only the distinct ids are decoded to str.
    """
    fmt = fmt.upper()
    try:
        delimiter = FORMAT_DELIMITERS[fmt]
    except KeyError:
        raise DataFormatError(f"unknown format {fmt!r}; expected one of {sorted(FORMAT_DELIMITERS)}")
    (user_blob, users), (item_blob, items) = _id_columns(path, delimiter)
    user_ids = user_blob.decode("utf-8").split("\n")
    item_ids = item_blob.decode("utf-8").split("\n")
    return InteractionDataset(user_ids, item_ids, *_group_by_user(users, items, len(user_ids)))


def _id_columns(path, delimiter: str) -> list[tuple[bytes, np.ndarray]]:
    """The user and the item column of a raw file, each as its distinct ids
    in first-appearance order, joined by "\n", and each line's index among
    them."""
    with open(path, "rb") as fh:
        text = fh.read()
    if not text.isascii():
        try:
            text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    b = np.frombuffer(text, dtype=np.uint8)[3 if text.startswith(codecs.BOM_UTF8) else 0:]
    sep = delimiter.encode()
    # Both end in b.size: the end of a last line with no "\n" (else an empty
    # line, which is skipped), and a delimiter position past every line.
    ends = _offsets(b, b"\n")
    hits = _offsets(b, sep)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    user_ends = hits[np.searchsorted(hits, starts)]
    bad = (user_ends >= ends) & (ends > starts)
    if bad.any():
        raise DataFormatError(
            f"{path}:{int(bad.argmax()) + 1}: expected at least 2 fields separated by "
            f"{delimiter!r}, got 1"
        )
    nonempty = ends > starts
    if not nonempty.all():
        starts, ends, user_ends = starts[nonempty], ends[nonempty], user_ends[nonempty]
    if not starts.size:
        raise EmptyDatasetError(f"{path} holds no interactions")
    item_starts = user_ends + len(sep)
    item_lengths = np.minimum(hits[np.searchsorted(hits, item_starts)], ends) - item_starts
    del hits, ends
    users = _dense_ids(b, starts, user_ends - starts)
    del starts, user_ends
    return [users, _dense_ids(b, item_starts, item_lengths)]


def _offsets(b: np.ndarray, pattern: bytes) -> np.ndarray:
    """Every offset at which pattern starts in b, ascending, then b.size."""
    last = b.size - len(pattern) + 1  # no match starts at or past this
    found = []
    for lo in range(0, last, SCAN_BLOCK):
        hi = min(lo + SCAN_BLOCK, last)
        at = b[lo:hi] == pattern[0]
        for k in range(1, len(pattern)):
            at &= b[lo + k:hi + k] == pattern[k]
        found.append(np.flatnonzero(at) + lo)
    return np.concatenate([*found, [b.size]])


def _dense_ids(b: np.ndarray, starts: np.ndarray, lengths: np.ndarray
               ) -> tuple[bytes, np.ndarray]:
    """The distinct fields b[s:s + l] in first-appearance order, joined by
    "\n", and each field's index among them."""
    keys = _field_keys(b, starts, lengths)
    order = np.argsort(keys)
    keys = keys[order]
    head = np.empty(keys.size, dtype=bool)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    del keys
    first = np.minimum.reduceat(order, np.flatnonzero(head))  # each distinct field's first line
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    dense = np.empty_like(order)
    dense[order] = rank[np.cumsum(head) - 1]
    lines = first[by_first]
    return _joined(b, starts[lines], lengths[lines]), dense


def _field_keys(b: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One uint64 per field b[s:s + l], equal for two fields exactly when
    their bytes are.

    Word j of a field holds its bytes 7j to 7j + 6, zero-padded, and in its
    top byte how many of its bytes lie at 7j or later, capped at 8; so the
    words spell out the bytes and the length. When no field is longer than
    7 bytes, word 0 is the key. Longer fields fold in one word at a time,
    each (key, word) pair renumbered densely with np.unique.
    """
    if b.size < 8:  # too short to read one word from
        b = np.append(b, np.zeros(8, dtype=np.uint8))
    # Element p of `words` is the little-endian uint64 at byte offset p. A
    # word that would run past the end is read 8 bytes before it and shifted.
    words = np.ndarray((b.size - 7,), dtype="<u8", buffer=b, strides=(1,))
    keys = None
    for offset in range(0, max(int(lengths.max()), 1), 7):
        at = starts + offset
        read = np.minimum(at, b.size - 8)
        word = words[read] >> (8 * (at - read)).astype(np.uint64)
        rest = np.clip(lengths - offset, 0, 8).astype(np.uint64)
        word &= LOW_BYTES[np.minimum(rest, 7)]
        word |= rest << np.uint64(56)
        if keys is None:
            keys = word
        else:
            _, high = np.unique(keys, return_inverse=True)
            distinct, low = np.unique(word, return_inverse=True)
            keys = high.astype(np.uint64) * np.uint64(distinct.size) + low.astype(np.uint64)
    return keys


def _joined(b: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> bytes:
    """The fields b[s:s + l] joined by "\n", with one gather."""
    ends = np.cumsum(lengths + 1)  # each field and the "\n" after it
    # Byte k of the result comes from offset idx[k]: one more than byte k - 1,
    # except at each field's first byte, which jumps to its start.
    idx = np.ones(ends[-1], dtype=np.int64)
    idx[0] = starts[0]
    idx[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1]
    np.cumsum(idx, out=idx)
    blob = np.take(b, idx, mode="clip")
    blob[ends - 1] = ord("\n")
    return blob[:-1].tobytes()


def k_core_filter(dataset: InteractionDataset, k_user: int, k_item: int) -> InteractionDataset:
    """Iteratively drop users with < k_user and items with < k_item
    interactions until both constraints hold, then re-index densely
    preserving the original id order."""
    if k_user < 1 or k_item < 1:
        raise ConfigError(f"core sizes must be >= 1, got k_user={k_user}, k_item={k_item}")
    kept = dataset.pairs()
    while True:
        u_deg = np.bincount(kept[:, 0], minlength=dataset.user_count)
        i_deg = np.bincount(kept[:, 1], minlength=dataset.item_count)
        keep = (u_deg[kept[:, 0]] >= k_user) & (i_deg[kept[:, 1]] >= k_item)
        if keep.all():
            break
        kept = kept[keep]
    if not kept.size:
        raise EmptyDatasetError(
            f"k-core filtering with k_user={k_user}, k_item={k_item} removed everything"
        )
    user_kept = np.zeros(dataset.user_count, dtype=bool)
    item_kept = np.zeros(dataset.item_count, dtype=bool)
    user_kept[kept[:, 0]] = True
    item_kept[kept[:, 1]] = True
    new_user = np.cumsum(user_kept) - 1
    new_item = np.cumsum(item_kept) - 1
    return InteractionDataset(
        [dataset.user_ids[u] for u in np.flatnonzero(user_kept).tolist()],
        [dataset.item_ids[i] for i in np.flatnonzero(item_kept).tolist()],
        *_group_by_user(new_user[kept[:, 0]], new_item[kept[:, 1]], int(user_kept.sum())),
    )


@dataclass
class SplitDataset:
    """Train, validation and test views sharing one vocabulary."""

    train: InteractionDataset
    valid: InteractionDataset
    test: InteractionDataset
    ratios: tuple[float, float, float]
    seed: int


def split_per_user(
    dataset: InteractionDataset,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> SplitDataset:
    """Shuffle each user's items and cut at round(r1*n) / round((r1+r2)*n).

    Users with fewer than three interactions keep one item in train and
    put the rest in test; validation may be empty. Every user retains at
    least one training item.

    Users are shuffled in order, each by one rng.shuffle of its own slice
    of a copy of dataset.items, which draws what rng.permutation(n) would;
    the cuts and the sorting of each part run over all users at once.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must be three nonnegative values summing to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    user_count = dataset.user_count
    starts, sizes = dataset.indptr[:-1], np.diff(dataset.indptr)
    items = dataset.items.copy()
    bounds = dataset.indptr.tolist()
    for start, end in zip(bounds, bounds[1:]):
        rng.shuffle(items[start:end])
    # The cut points of math.floor(x + 0.5), in the same float64 arithmetic.
    # A cut past a user's last item cuts nothing, so c2 needs no cap at n.
    c1 = np.maximum(np.floor(ratios[0] * sizes + 0.5), 1).astype(np.int64)
    c2 = np.maximum(np.floor((ratios[0] + ratios[1]) * sizes + 0.5), c1).astype(np.int64)
    c1[sizes < 3] = 1
    c2[sizes < 3] = 1
    # Group part * user_count + u of each shuffled position (part 0, 1 or 2
    # for train, valid, test), then one sort by (group, item): each part is
    # then one run of the sorted items, user-major.
    position = np.arange(items.size)
    group = np.repeat(np.arange(user_count), sizes)
    group += user_count * (position >= np.repeat(starts + c1, sizes))
    group += user_count * (position >= np.repeat(starts + c2, sizes))
    bits = int(items.max()).bit_length() if items.size else 0
    items = np.sort(group << bits | items) & ((1 << bits) - 1)
    ends = np.zeros(3 * user_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=3 * user_count), out=ends[1:])
    parts = []
    for part in range(3):
        indptr = ends[part * user_count:(part + 1) * user_count + 1]
        parts.append(InteractionDataset(dataset.user_ids, dataset.item_ids, indptr - indptr[0],
                                        items[indptr[0]:indptr[-1]]))
    return SplitDataset(*parts, ratios=tuple(ratios), seed=seed)


@dataclass
class DatasetStats:
    users: int
    items: int
    interactions: int
    sparsity: float


def dataset_stats(dataset: InteractionDataset) -> DatasetStats:
    """Exact counts plus sparsity rounded to four decimal places."""
    n = dataset.interaction_count
    density = n / (dataset.user_count * dataset.item_count)
    return DatasetStats(
        users=dataset.user_count,
        items=dataset.item_count,
        interactions=n,
        sparsity=round(1.0 - density, 4),
    )


def save_split(split: SplitDataset, out_dir) -> None:
    """Write train/valid/test pair files plus the two vocab files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    item_strs = [str(i) for i in range(split.train.item_count)]
    for name, view in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        with atomic_open(out / f"{name}.txt") as fh:
            for u, items in enumerate(view.items_by_user):
                if len(items):
                    prefix = f"{u}\t"
                    lines = ("\n" + prefix).join(map(item_strs.__getitem__, items.tolist()))
                    fh.write(f"{prefix}{lines}\n")
    with atomic_open(out / "user_vocab.txt") as fh:
        fh.writelines(f"{raw}\n" for raw in split.train.user_ids)
    with atomic_open(out / "item_vocab.txt") as fh:
        fh.writelines(f"{raw}\n" for raw in split.train.item_ids)
    with atomic_open(out / "split_meta.txt") as fh:
        r = ",".join(repr(x) for x in split.ratios)
        fh.write(f"ratios={r}\nseed={split.seed}\n")


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write path through a temporary file that replaces it on success.

    An interrupted write leaves the previous file intact and no partial file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_split(data_dir) -> SplitDataset:
    """Read back a directory written by save_split."""
    root = Path(data_dir)
    user_ids = _read_vocab(root / "user_vocab.txt")
    item_ids = _read_vocab(root / "item_vocab.txt")
    views = {}
    for name in ("train", "valid", "test"):
        users, items = _read_pairs(root / f"{name}.txt", len(user_ids), len(item_ids))
        views[name] = InteractionDataset(user_ids, item_ids,
                                         *_group_by_user(users, items, len(user_ids)))
    ratios, seed = (0.7, 0.1, 0.2), 0
    path = root / "split_meta.txt"
    with _utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            key, _, value = line.strip().partition("=")
            try:
                if key == "ratios":
                    ratios = tuple(float(x) for x in value.split(","))
                elif key == "seed":
                    seed = int(value)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad {key} {value!r}") from exc
    return SplitDataset(
        train=views["train"],
        valid=views["valid"],
        test=views["test"],
        ratios=ratios,
        seed=seed,
    )


def _read_pairs(path, user_count: int, item_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The user and item columns of a pair file, in file order.

    One np.loadtxt call reads a well-formed file. The line loop reads
    whatever loadtxt rejects, warns about (an empty file), reads into
    another shape or finds outside the vocab; it raises DataFormatError
    naming the first bad line. Every line loadtxt accepts, int() reads
    the same way.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = np.loadtxt(path, dtype=np.int64, delimiter="\t", comments=None,
                               ndmin=2, encoding="utf-8")
    except (ValueError, UserWarning):
        pairs = None
    if (pairs is not None and pairs.shape[1] == 2 and pairs.size and pairs.min() >= 0
            and pairs[:, 0].max() < user_count and pairs[:, 1].max() < item_count):
        return pairs[:, 0], pairs[:, 1]
    return _read_pairs_by_line(path, user_count, item_count)


def _read_pairs_by_line(path, user_count: int, item_count: int) -> tuple[np.ndarray, np.ndarray]:
    users: list[int] = []
    items: list[int] = []
    with _utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                u_s, i_s = line.split("\t")
                u, i = int(u_s), int(i_s)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad pair {line!r}") from exc
            if not (0 <= u < user_count and 0 <= i < item_count):
                raise DataFormatError(
                    f"{path}:{lineno}: pair {line!r} outside the vocab of "
                    f"{user_count} users and {item_count} items"
                )
            users.append(u)
            items.append(i)
    return np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)


@contextmanager
def _utf8(path):
    """path opened as UTF-8 text; bytes that are not UTF-8 are a
    DataFormatError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_vocab(path) -> list[str]:
    with _utf8(path) as fh:
        return [line.rstrip("\n") for line in fh]
