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
"""

from __future__ import annotations

import math
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

    user_ids and item_ids map dense index to raw id; items_by_user holds
    each user's interacted items as a sorted index array.
    """

    user_ids: list[str]
    item_ids: list[str]
    items_by_user: list[np.ndarray]

    @property
    def user_count(self) -> int:
        return len(self.user_ids)

    @property
    def item_count(self) -> int:
        return len(self.item_ids)

    @property
    def interaction_count(self) -> int:
        return sum(map(len, self.items_by_user))

    def pairs(self) -> np.ndarray:
        """All (user, item) index pairs, user-major, items ascending."""
        sizes = list(map(len, self.items_by_user))
        users = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        items = np.concatenate([np.empty(0, dtype=np.int64), *self.items_by_user])
        return np.column_stack((users, items))


def _group_by_user(users: np.ndarray, items: np.ndarray, user_count: int) -> list[np.ndarray]:
    """The distinct items of each of user_count users, ascending, from
    parallel (user, item) index arrays."""
    # One int64 key per pair sorts about 20x faster than np.lexsort on the two
    # columns (numpy 2.4 on x86-64, 120k and 1M pairs).
    span = int(items.max()) + 1 if items.size else 1
    keys = np.sort(users * span + items)
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    users, items = np.divmod(keys[new], span)
    ends = np.cumsum(np.bincount(users, minlength=user_count)).tolist()
    return [items[start:end] for start, end in zip([0, *ends], ends)]


def _dense_ids(raw: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct raw ids in first-appearance order, and each entry's index."""
    index: dict[str, int] = {}
    dense = np.fromiter((index.setdefault(r, len(index)) for r in raw),
                        dtype=np.int64, count=len(raw))
    return list(index), dense


def parse_interactions(path, fmt: str = "MOVIELENS_DAT") -> InteractionDataset:
    """Parse a raw interaction file into a dense-indexed dataset.

    The user is a line's first field and the item its second.
    Duplicate (user, item) pairs are collapsed to the first occurrence.
    A line with too few fields raises DataFormatError naming the line.
    """
    fmt = fmt.upper()
    try:
        delimiter = FORMAT_DELIMITERS[fmt]
    except KeyError:
        raise DataFormatError(f"unknown format {fmt!r}; expected one of {sorted(FORMAT_DELIMITERS)}")
    raw_users: list[str] = []
    raw_items: list[str] = []
    with _utf8(path, "utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(delimiter, 2)
            if len(fields) < 2:
                raise DataFormatError(
                    f"{path}:{lineno}: expected at least 2 fields separated by "
                    f"{delimiter!r}, got {len(fields)}"
                )
            raw_users.append(fields[0])
            raw_items.append(fields[1])
    if not raw_users:
        raise EmptyDatasetError(f"{path} holds no interactions")
    user_ids, users = _dense_ids(raw_users)
    item_ids, items = _dense_ids(raw_items)
    return InteractionDataset(
        user_ids=user_ids,
        item_ids=item_ids,
        items_by_user=_group_by_user(users, items, len(user_ids)),
    )


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
        user_ids=[dataset.user_ids[u] for u in np.flatnonzero(user_kept).tolist()],
        item_ids=[dataset.item_ids[i] for i in np.flatnonzero(item_kept).tolist()],
        items_by_user=_group_by_user(
            new_user[kept[:, 0]], new_item[kept[:, 1]], int(user_kept.sum())),
    )


@dataclass
class SplitDataset:
    """Train, validation and test views sharing one vocabulary."""

    train: InteractionDataset
    valid: InteractionDataset
    test: InteractionDataset
    ratios: tuple[float, float, float]
    seed: int


def _view(base: InteractionDataset, items_by_user: list[np.ndarray]) -> InteractionDataset:
    return InteractionDataset(
        user_ids=base.user_ids,
        item_ids=base.item_ids,
        items_by_user=items_by_user,
    )


def split_per_user(
    dataset: InteractionDataset,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> SplitDataset:
    """Shuffle each user's items and cut at round(r1*n) / round((r1+r2)*n).

    Users with fewer than three interactions keep one item in train and
    put the rest in test; validation may be empty. Every user retains at
    least one training item.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must be three nonnegative values summing to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    tr, va, te = [], [], []
    for items in dataset.items_by_user:
        n = items.size
        shuffled = items[rng.permutation(n)]
        if n < 3:
            c1, c2 = 1, 1
        else:
            c1 = max(1, int(math.floor(ratios[0] * n + 0.5)))
            c2 = max(c1, int(math.floor((ratios[0] + ratios[1]) * n + 0.5)))
            c2 = min(c2, n)
        tr.append(np.sort(shuffled[:c1]))
        va.append(np.sort(shuffled[c1:c2]))
        te.append(np.sort(shuffled[c2:]))
    return SplitDataset(
        train=_view(dataset, tr),
        valid=_view(dataset, va),
        test=_view(dataset, te),
        ratios=tuple(ratios),
        seed=seed,
    )


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
        views[name] = InteractionDataset(
            user_ids=user_ids,
            item_ids=item_ids,
            items_by_user=_group_by_user(users, items, len(user_ids)),
        )
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
def _utf8(path, encoding: str = "utf-8"):
    """path opened as text in encoding, utf-8 or utf-8-sig; bytes that are not
    UTF-8 are a DataFormatError naming it."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_vocab(path) -> list[str]:
    with _utf8(path) as fh:
        return [line.rstrip("\n") for line in fh]
