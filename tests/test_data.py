"""Parsing, k-core filtering, per-user splitting, and split persistence."""

import numpy as np
import pytest

from flaicf.data import (
    DataFormatError,
    EmptyDatasetError,
    dataset_stats,
    k_core_filter,
    load_split,
    parse_interactions,
    save_split,
    split_per_user,
)
from tests.conftest import make_dataset, random_dataset, write_raw


# ----------------------------------------------------------------- parsing


def test_parse_movielens_dat(tmp_path):
    path = write_raw(tmp_path / "r.dat", [
        "u1::i1::5::100",
        "u1::i2::3::101",
        "u2::i1::4::102",
    ])
    ds = parse_interactions(path, "MOVIELENS_DAT")
    assert ds.user_count == 2
    assert ds.item_count == 2
    assert ds.interaction_count == 3
    # first-appearance vocab order
    assert ds.user_ids == ["u1", "u2"]
    assert ds.item_ids == ["i1", "i2"]


def test_parse_dedups(tmp_path):
    path = write_raw(tmp_path / "r.dat", ["u1::i1::5::1", "u1::i1::2::9"])
    ds = parse_interactions(path, "MOVIELENS_DAT")
    assert ds.interaction_count == 1


def test_parse_groups_like_a_loop(tmp_path):
    """Per-user grouping and pairs() against a plain loop over the lines."""
    rng = np.random.default_rng(3)
    raw = [(f"u{rng.integers(12)}", f"i{rng.integers(20)}") for _ in range(150)]  # with repeats
    ds = parse_interactions(write_raw(tmp_path / "r.csv", [f"{u},{i}" for u, i in raw]), "CSV")
    users, items, by_user = {}, {}, {}
    for u, i in raw:
        by_user.setdefault(users.setdefault(u, len(users)), set()).add(items.setdefault(i, len(items)))
    assert (ds.user_ids, ds.item_ids) == (list(users), list(items))
    assert [xs.tolist() for xs in ds.items_by_user] == [sorted(by_user[u]) for u in range(len(users))]
    loop_pairs = [(u, i) for u in range(len(users)) for i in sorted(by_user[u])]
    assert ds.pairs().tolist() == [list(pair) for pair in loop_pairs]


def test_parse_csv_and_tsv(tmp_path):
    csv = write_raw(tmp_path / "r.csv", ["a,b,5", "a,c,1"])
    ds = parse_interactions(csv, "CSV")
    assert (ds.user_count, ds.item_count, ds.interaction_count) == (1, 2, 2)
    tsv = write_raw(tmp_path / "r.tsv", ["a\tb", "c\tb"])
    ds = parse_interactions(tsv, "TSV")
    assert (ds.user_count, ds.item_count, ds.interaction_count) == (2, 1, 2)


def test_parse_malformed_line_names_line_number(tmp_path):
    path = write_raw(tmp_path / "r.dat", ["u1::i1::5::1", "broken-line", "u2::i2::1::2"])
    with pytest.raises(DataFormatError, match=r":2:"):
        parse_interactions(path, "MOVIELENS_DAT")


def test_parse_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.dat"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyDatasetError):
        parse_interactions(path, "MOVIELENS_DAT")


def test_parse_unknown_format(tmp_path):
    path = write_raw(tmp_path / "r.x", ["a b"])
    with pytest.raises(ValueError):
        parse_interactions(path, "PARQUET")


def test_parse_serialize_parse_reaches_fixed_point(tmp_path):
    # one serialization pass normalizes vocab order; after that, re-parsing
    # the written pairs reproduces identical indices
    ds = random_dataset(3, n_users=6, n_items=9)

    def round_trip(d, name):
        lines = [f"{d.user_ids[u]}\t{d.item_ids[i]}" for u, i in d.pairs()]
        return parse_interactions(write_raw(tmp_path / name, lines), "TSV")

    once = round_trip(ds, "a.tsv")
    twice = round_trip(once, "b.tsv")
    assert twice.user_ids == once.user_ids
    assert twice.item_ids == once.item_ids
    np.testing.assert_array_equal(twice.pairs(), once.pairs())
    assert once.interaction_count == ds.interaction_count


# ------------------------------------------------------------------ k-core


def test_k_core_fixed_point_unchanged():
    ds = make_dataset({0: [0, 1, 2], 1: [0, 1, 2], 2: [0, 1, 2]}, 3)
    out = k_core_filter(ds, 3, 3)
    assert out.interaction_count == 9
    assert out.user_ids == ds.user_ids


def test_k_core_chain_collapses_to_empty():
    # u0-i0, u0-i1, u1-i1 with k=2: u1 pruned, then i0, then u0, then i1
    ds = make_dataset({0: [0, 1], 1: [1]}, 2)
    with pytest.raises(EmptyDatasetError):
        k_core_filter(ds, 2, 2)


def test_k_core_degree_audit():
    ds = random_dataset(17, n_users=30, n_items=25, min_items=1, max_items=8)
    out = k_core_filter(ds, 3, 3)
    degrees_u = [arr.size for arr in out.items_by_user]
    assert min(degrees_u) >= 3
    item_deg = np.zeros(out.item_count, dtype=int)
    for arr in out.items_by_user:
        item_deg[arr] += 1
    assert item_deg.min() >= 3
    # idempotence: the output is its own fixed point
    again = k_core_filter(out, 3, 3)
    assert again.interaction_count == out.interaction_count


def test_k_core_preserves_first_appearance_order():
    ds = make_dataset({0: [0, 1, 2], 1: [1, 2, 3], 2: [1, 2]}, 4)
    out = k_core_filter(ds, 2, 2)
    # items 0 and 3 drop (degree 1); survivors keep their relative order
    assert out.item_ids == ["i1", "i2"]
    assert out.user_ids == ["u0", "u1", "u2"]


def test_k_core_rejects_bad_k():
    ds = make_dataset({0: [0]}, 1)
    with pytest.raises(ValueError):
        k_core_filter(ds, 0, 1)


# ---------------------------------------------------------------- splitting


def test_split_ten_items_is_7_1_2():
    ds = make_dataset({0: list(range(10))}, 10)
    split = split_per_user(ds, (0.7, 0.1, 0.2), seed=0)
    assert split.train.items_by_user[0].size == 7
    assert split.valid.items_by_user[0].size == 1
    assert split.test.items_by_user[0].size == 2


def test_split_two_items_minimum_train_rule():
    ds = make_dataset({0: [0, 1]}, 2)
    split = split_per_user(ds, seed=0)
    assert split.train.items_by_user[0].size == 1
    assert split.valid.items_by_user[0].size == 0
    assert split.test.items_by_user[0].size == 1


def test_split_singleton_keeps_train_item():
    ds = make_dataset({0: [1]}, 2)
    split = split_per_user(ds, seed=0)
    assert split.train.items_by_user[0].size == 1
    assert split.test.items_by_user[0].size == 0


def test_split_partitions_exactly():
    ds = random_dataset(19, n_users=40, n_items=30, min_items=1, max_items=20)
    split = split_per_user(ds, seed=3)
    for u in range(ds.user_count):
        tr = set(split.train.items_by_user[u].tolist())
        va = set(split.valid.items_by_user[u].tolist())
        te = set(split.test.items_by_user[u].tolist())
        assert tr | va | te == set(ds.items_by_user[u].tolist())
        assert not (tr & va) and not (tr & te) and not (va & te)
        assert len(tr) >= 1


def test_split_deterministic():
    ds = random_dataset(20, n_users=15, n_items=20)
    a = split_per_user(ds, seed=5)
    b = split_per_user(ds, seed=5)
    c = split_per_user(ds, seed=6)
    for u in range(ds.user_count):
        np.testing.assert_array_equal(a.train.items_by_user[u], b.train.items_by_user[u])
    assert any(
        not np.array_equal(a.train.items_by_user[u], c.train.items_by_user[u])
        for u in range(ds.user_count)
    )


def test_split_rejects_bad_ratios():
    ds = make_dataset({0: [0, 1, 2]}, 3)
    with pytest.raises(ValueError):
        split_per_user(ds, (0.5, 0.5, 0.5), seed=0)


# -------------------------------------------------------------------- stats


def test_stats_two_by_two():
    ds = make_dataset({0: [0], 1: [1]}, 2)
    stats = dataset_stats(ds)
    assert stats.users == 2 and stats.items == 2 and stats.interactions == 2
    assert stats.sparsity == pytest.approx(0.5)


def test_stats_sparsity_formula():
    ds = random_dataset(21, n_users=10, n_items=12)
    stats = dataset_stats(ds)
    expect = 1.0 - ds.interaction_count / (10 * 12)
    assert stats.sparsity == pytest.approx(expect, abs=5e-5)  # 4 dp rounding


# -------------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path):
    ds = random_dataset(22, n_users=12, n_items=16)
    split = split_per_user(ds, seed=9)
    save_split(split, tmp_path / "out")
    loaded = load_split(tmp_path / "out")
    assert loaded.train.user_ids == split.train.user_ids
    assert loaded.train.item_ids == split.train.item_ids
    assert loaded.seed == split.seed
    assert loaded.ratios == split.ratios
    for name in ("train", "valid", "test"):
        a, b = getattr(split, name), getattr(loaded, name)
        for u in range(ds.user_count):
            np.testing.assert_array_equal(a.items_by_user[u], b.items_by_user[u])


def test_load_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_split(tmp_path / "nowhere")
