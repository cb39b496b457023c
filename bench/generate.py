"""Seeded synthetic inputs for the benchmark.

Users prefer one of a few planted item clusters, item popularity follows
a Zipf law and history lengths are log-normal, drawn at fixed quantiles,
so a trained attentive model clearly beats RANDOM. Every item is topped
up to five users, so the whole catalogue survives the k-core.

The raw file mixes the planted core with duplicate lines and a sparse
tail (users with fewer than five interactions, on items no core user
touches), so `flaicf prepare --k_user 5` has work to discard. The core
comes from the shape's own seed; the run's seed decides everything around
it (see `generate`). The expected k-core is computed here independently
of the program, and the benchmark checks the program's output against it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np

K_CORE = 5  # prepare's --k_user and --k_item
DUP_FRAC = 0.1  # share of core lines repeated in the raw file


@dataclass(frozen=True)
class Shape:
    """Size and structure of one generated dataset."""

    users: int
    items: int
    clusters: int
    median_len: float
    len_sigma: float
    in_cluster: float
    zipf: float
    tail_lines: int
    core_seed: int


@dataclass
class Generated:
    """A raw interaction file and the k-core the program should keep."""

    raw_path: Path
    raw_lines: int
    core_users: int
    core_items: int
    core_interactions: int


def history_lengths(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """Log-normal lengths at the n quantile midpoints, in seeded order."""
    normal = NormalDist()
    q = (np.arange(shape.users) + 0.5) / shape.users
    z = np.array([normal.inv_cdf(float(x)) for x in q])
    lengths = np.rint(shape.median_len * np.exp(shape.len_sigma * z)).astype(np.int64)
    lengths = np.clip(lengths, K_CORE + 2, shape.items // 2)
    return rng.permutation(lengths)


def planted_histories(shape: Shape, rng: np.random.Generator) -> list[np.ndarray]:
    """Per-user item sets drawn from cluster-boosted Zipf popularity."""
    lengths = history_lengths(shape, rng)
    item_cluster = rng.permutation(shape.items) % shape.clusters
    popularity = 1.0 / (rng.permutation(shape.items) + 1.0) ** shape.zipf
    total = popularity.sum()
    weights = []
    for c in range(shape.clusters):
        inside = item_cluster == c
        mass_in = popularity[inside].sum()
        boost = shape.in_cluster * (total - mass_in) / ((1.0 - shape.in_cluster) * mass_in)
        w = popularity * np.where(inside, boost, 1.0)
        weights.append(w / w.sum())
    home = rng.permutation(shape.users) % shape.clusters
    histories = [
        rng.choice(shape.items, size=int(n), replace=False, p=weights[c])
        for n, c in zip(lengths, home)
    ]
    # Top every item up to K_CORE users from its own cluster, so that the
    # whole catalogue survives the k-core.
    degree = np.bincount(np.concatenate(histories), minlength=shape.items)
    members = [np.flatnonzero(home == c) for c in range(shape.clusters)]
    for item in np.flatnonzero(degree < K_CORE):
        owners = members[item_cluster[item]]
        if owners.size < K_CORE:
            owners = np.arange(shape.users)
        have = np.array([item in histories[u] for u in owners])
        extra = rng.choice(owners[~have], size=K_CORE - degree[item], replace=False)
        for u in extra:
            histories[u] = np.append(histories[u], item)
    return [np.sort(h) for h in histories]


def k_core(histories: list[np.ndarray], n_items: int) -> tuple[int, int, int]:
    """(users, items, interactions) left by iterative K_CORE-core filtering."""
    users = np.repeat(np.arange(len(histories)), [h.size for h in histories])
    items = np.concatenate(histories)
    keep = np.ones(items.size, dtype=bool)
    while True:
        u_deg = np.bincount(users[keep], minlength=len(histories))
        i_deg = np.bincount(items[keep], minlength=n_items)
        drop = keep & ((u_deg[users] < K_CORE) | (i_deg[items] < K_CORE))
        if not drop.any():
            break
        keep &= ~drop
    return (
        int(np.unique(users[keep]).size),
        int(np.unique(items[keep]).size),
        int(keep.sum()),
    )


def raw_lines(shape: Shape, histories: list[np.ndarray], rng: np.random.Generator) -> list[str]:
    """MOVIELENS_DAT lines: the core in a fixed order, with duplicates and a
    sparse tail mixed in by `rng`.

    Each duplicate comes after its original and tail ids are disjoint from
    core ids, so the dense ids `prepare` assigns in first-appearance order,
    and with them the split, do not depend on `rng`.
    """
    users = np.repeat(np.arange(len(histories)), [h.size for h in histories])
    items = np.concatenate(histories)
    core = [f"u{u}::i{i}" for u, i in zip(users.tolist(), items.tolist())]
    n = len(core)
    dups = rng.choice(n, size=int(DUP_FRAC * n), replace=False)

    # Tail users hold 1..K_CORE-1 items, so k-core drops each of them, and
    # with them every tail item.
    tail_counts = rng.integers(1, K_CORE, size=max(1, shape.tail_lines // 2))
    tail_counts = tail_counts[np.cumsum(tail_counts) <= shape.tail_lines]
    tail_users = np.repeat(np.arange(tail_counts.size), tail_counts)
    tail_items = rng.integers(0, max(1, tail_counts.sum() // 2), size=tail_users.size)
    tail = [f"x{u}::t{i}" for u, i in zip(tail_users.tolist(), tail_items.tolist())]

    pairs = core + [core[j] for j in dups.tolist()] + tail
    position = np.concatenate([
        np.arange(n, dtype=float),
        rng.uniform(dups + 0.5, n),
        rng.uniform(-0.5, n, size=len(tail)),
    ])
    ratings = rng.integers(1, 6, size=len(pairs)).tolist()
    stamps = rng.integers(956_703_932, 1_046_454_590, size=len(pairs)).tolist()
    return [f"{pairs[j]}::{ratings[j]}::{stamps[j]}"
            for j in np.argsort(position, kind="stable").tolist()]


def generate(shape: Shape, seed: int, out_dir: Path) -> Generated:
    """Write `raw.dat` under out_dir and return what prepare should keep.

    The planted core comes from `shape.core_seed`; `seed` decides the
    duplicates, the tail, ratings, timestamps and line order around it.
    """
    histories = planted_histories(shape, np.random.default_rng(shape.core_seed))
    users, items, interactions = k_core(histories, shape.items)
    lines = raw_lines(shape, histories, np.random.default_rng(seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "raw.dat"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Generated(
        raw_path=path,
        raw_lines=len(lines),
        core_users=users,
        core_items=items,
        core_interactions=interactions,
    )


def scaled(shape: Shape, factor: float) -> Shape:
    """The same structure with the users and the raw tail scaled by factor.

    Below factor 1 the catalogue shrinks too, with floors that leave tiny
    smoke runs enough users and items for every check.
    """
    if factor >= 1.0:
        return replace(shape, users=int(round(shape.users * factor)),
                       tail_lines=int(round(shape.tail_lines * factor)))
    items = max(60, int(round(shape.items * factor)))
    return replace(
        shape,
        users=max(30, int(round(shape.users * factor))),
        items=items,
        clusters=max(2, min(shape.clusters, items // 30)),
        median_len=min(shape.median_len, max(12.0, items / 5)),
        tail_lines=max(10, int(round(shape.tail_lines * factor))),
    )
