"""Parsing, k-core filtering, per-user splitting, and split persistence."""

import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from flaicf import data
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


def naive_k_core(pairs: set, k_user: int, k_item: int) -> set:
    """Peel one user or item at a time until every degree reaches its k."""
    kept = set(pairs)
    while True:
        users = Counter(u for u, _ in kept)
        items = Counter(i for _, i in kept)
        low = [("u", u) for u, n in users.items() if n < k_user]
        low += [("i", i) for i, n in items.items() if n < k_item]
        if not low:
            return kept
        side, node = low[0]
        kept = {(u, i) for u, i in kept if (u if side == "u" else i) != node}


@pytest.mark.parametrize("seed", [3, 17, 29])
@pytest.mark.parametrize("k_user,k_item", [(1, 1), (2, 3), (3, 2), (4, 4), (6, 3), (3, 6)])
def test_k_core_keeps_every_pair_the_core_can_keep(seed, k_user, k_item):
    # the k-core is the largest subset whose degrees all reach k: a pair
    # dropped without need would pass the degree audit but not this
    ds = random_dataset(seed, n_users=30, n_items=25, min_items=1, max_items=8)
    raw = {(ds.user_ids[u], ds.item_ids[i]) for u, i in ds.pairs().tolist()}
    expect = naive_k_core(raw, k_user, k_item)
    if not expect:
        with pytest.raises(EmptyDatasetError):
            k_core_filter(ds, k_user, k_item)
        return
    out = k_core_filter(ds, k_user, k_item)
    assert {(out.user_ids[u], out.item_ids[i]) for u, i in out.pairs().tolist()} == expect


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


# ------------------------------------------ bulk paths against line loops
#
# The reference functions below are the line-by-line parser, the np.split
# grouping and the row-wise pair writer that the bulk code replaced. The
# bulk code must give identical datasets, errors and bytes.


def _reference_parse(path, fmt):
    delimiter = data.FORMAT_DELIMITERS[fmt]
    raw_pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split(delimiter)
            if len(fields) < 2:
                raise DataFormatError(
                    f"{path}:{lineno}: expected at least 2 fields separated by "
                    f"{delimiter!r}, got {len(fields)}"
                )
            raw_pairs.append((fields[0], fields[1]))
    user_index, item_index = {}, {}
    users = np.fromiter((user_index.setdefault(u, len(user_index)) for u, _ in raw_pairs),
                        dtype=np.int64, count=len(raw_pairs))
    items = np.fromiter((item_index.setdefault(i, len(item_index)) for _, i in raw_pairs),
                        dtype=np.int64, count=len(raw_pairs))
    return list(user_index), list(item_index), _reference_grouping(users, items, len(user_index))


def _reference_grouping(users, items, user_count):
    order = np.lexsort((items, users))
    users, items = users[order], items[order]
    new = np.ones(users.size, dtype=bool)
    new[1:] = (users[1:] != users[:-1]) | (items[1:] != items[:-1])
    users, items = users[new], items[new]
    return np.split(items, np.cumsum(np.bincount(users, minlength=user_count)))[:-1]


def _reference_split(dataset, ratios, seed):
    rng = np.random.default_rng(seed)
    parts = ([], [], [])
    for items in dataset.items_by_user:
        n = items.size
        shuffled = items[rng.permutation(n)]
        if n < 3:
            c1, c2 = 1, 1
        else:
            c1 = max(1, int(math.floor(ratios[0] * n + 0.5)))
            c2 = max(c1, int(math.floor((ratios[0] + ratios[1]) * n + 0.5)))
            c2 = min(c2, n)
        for part, piece in zip(parts, (shuffled[:c1], shuffled[c1:c2], shuffled[c2:])):
            part.append(np.sort(piece))
    return parts


def _reference_pair_bytes(view):
    return "".join(f"{u}\t{i}\n" for u, i in view.pairs()).encode("utf-8")


def _assert_same_groups(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


def _random_raw_file(rng, path, fmt, malformed):
    """Lines of 2-6 fields over a small id pool (so with duplicates), each
    ended by "\\n", "\\r\\n" or a lone "\\r", with blank lines between and
    no line end after the last; optionally one line of a single field."""
    delimiter = data.FORMAT_DELIMITERS[fmt]
    n_users, n_items = int(rng.integers(1, 30)), int(rng.integers(1, 40))
    lines = []
    for _ in range(int(rng.integers(1, 200))):
        fields = [f"u{rng.integers(n_users)}", f"i{rng.integers(n_items)}"]
        fields += [str(rng.integers(100)) for _ in range(int(rng.integers(0, 5)))]
        lines.append(delimiter.join(fields))
        if rng.random() < 0.1:
            lines.append("")
    if malformed:
        lines.insert(int(rng.integers(len(lines) + 1)), f"u{rng.integers(n_users)}")
    ends = rng.choice(["\n", "\r\n", "\r"], size=len(lines))
    text = "".join(line + end for line, end in zip(lines, ends))
    path.write_bytes(text.removesuffix(ends[-1]).encode("utf-8"))
    return str(path)


@pytest.mark.parametrize("seed", range(12))
def test_parse_matches_the_line_by_line_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    for fmt in ("MOVIELENS_DAT", "CSV", "TSV"):
        for malformed in (False, True):
            path = _random_raw_file(rng, tmp_path / f"{fmt}-{malformed}.txt", fmt, malformed)
            try:
                want = _reference_parse(path, fmt)
            except DataFormatError as exc:
                with pytest.raises(DataFormatError) as got:
                    parse_interactions(path, fmt)
                assert str(got.value) == str(exc)
                continue
            ds = parse_interactions(path, fmt)
            assert (ds.user_ids, ds.item_ids) == want[:2]
            _assert_same_groups(ds.items_by_user, want[2])


def test_a_leading_byte_order_mark_is_not_part_of_the_first_user(tmp_path):
    path = tmp_path / "r.dat"
    path.write_bytes(b"\xef\xbb\xbfu1::i1::5::1\nu1::i2::3::2")
    ds = parse_interactions(path, "MOVIELENS_DAT")
    assert ds.user_ids == ["u1"]
    assert ds.items_by_user[0].tolist() == [0, 1]


# Ids the byte-level parser could get wrong: one to three uint64 words long,
# multi-byte UTF-8, byte prefixes of one another, trailing NUL bytes and
# spaces, the empty id, and the other formats' delimiters.
ADVERSARIAL_IDS = [
    "", "a", "ab", "abcdefg", "abcdefgh", "abcdefghijklmn", "abcdefghijklmno",
    "abcdefghijklmnopqrst", "a\0", "a\0\0", "\0", "\0\0\0\0\0\0\0\0", "a ", "a  ", " a",
    "ü", "üü", "日本", "日本語", "0", "00", "0000000", "00000000", "a:b", "a,b", "a\tb",
    "\x0b", "\x0c", "\x1c", "\x85", " ",
]
# Whitespace-only lines: each holds no "::" or ",", and only some a tab.
BLANK_LINES = [" ", "   ", "\t", " \t ", "\x0b", "　"]


def _adversarial_raw_file(rng, path, fmt, blank_lines, final_newline):
    """Lines over ADVERSARIAL_IDS and random ids of 1-20 bytes, with empty
    user or item fields, delimiter runs and, if asked, whitespace-only lines."""
    delimiter = data.FORMAT_DELIMITERS[fmt]
    alphabet = ["a", "b", "\0", " ", "ü", "日"]
    pool = list(ADVERSARIAL_IDS)
    for _ in range(40):
        target, word = int(rng.integers(1, 21)), ""
        while len(word.encode("utf-8")) < target:
            word += alphabet[int(rng.integers(len(alphabet)))]
        pool.append(word)
    lines = []
    for _ in range(int(rng.integers(50, 300))):
        kind = rng.random()
        if kind < 0.05:
            lines.append(delimiter * int(rng.integers(1, 4)))  # a run: empty user and item
        elif kind < 0.1:
            lines.append("")
        elif blank_lines and kind < 0.12:
            lines.append(BLANK_LINES[int(rng.integers(len(BLANK_LINES)))])
        else:
            fields = [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(2, 5)))]
            joins = [delimiter * (2 if rng.random() < 0.1 else 1) for _ in fields[1:]]
            lines.append(fields[0] + "".join(j + f for j, f in zip(joins, fields[1:])))
    text = "\n".join(lines) + ("\n" if final_newline else "")
    path.write_bytes(text.encode("utf-8"))
    return str(path)


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("blank_lines", [False, True])
@pytest.mark.parametrize("fmt", ["MOVIELENS_DAT", "CSV", "TSV"])
@pytest.mark.parametrize("seed", range(4))
def test_parse_matches_the_reference_on_adversarial_ids(tmp_path, seed, fmt, blank_lines,
                                                        final_newline):
    rng = np.random.default_rng([seed, len(fmt), blank_lines, final_newline])
    path = _adversarial_raw_file(rng, tmp_path / "raw.txt", fmt, blank_lines, final_newline)
    try:
        want = _reference_parse(path, fmt)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            parse_interactions(path, fmt)
        assert str(got.value) == str(exc)
        return
    ds = parse_interactions(path, fmt)
    assert (ds.user_ids, ds.item_ids) == want[:2]
    _assert_same_groups(ds.items_by_user, want[2])


def test_adversarial_files_reach_both_outcomes(tmp_path):
    """The test above checks errors and datasets alike, and numbers ids of
    every word count and of multi-byte UTF-8."""
    outcomes, ids = set(), set()
    for seed in range(4):
        for fmt in data.FORMAT_DELIMITERS:
            for blank_lines in (False, True):
                rng = np.random.default_rng([seed, len(fmt), blank_lines, True])
                path = _adversarial_raw_file(rng, tmp_path / "raw.txt", fmt, blank_lines, True)
                try:
                    ds = parse_interactions(path, fmt)
                except DataFormatError:
                    outcomes.add("error")
                else:
                    outcomes.add("dataset")
                    ids.update(ds.user_ids + ds.item_ids)
    assert outcomes == {"error", "dataset"}
    byte_lengths = {len(i.encode("utf-8")) for i in ids}
    assert {0, 7, 8, 14, 15, 20} <= byte_lengths
    assert {"日本", "a\0", "a ", "\0"} <= ids


def test_a_file_that_is_not_utf8_is_reported_before_a_malformed_line(tmp_path):
    path = tmp_path / "r.dat"
    path.write_bytes(b"broken-line\nu1::i1::5::1\nu2::\xff::1::2\n")
    with pytest.raises(DataFormatError) as got:
        parse_interactions(path, "MOVIELENS_DAT")
    assert str(got.value) == f"{path}: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("seed", range(8))
def test_split_matches_the_per_user_loop(seed):
    rng = np.random.default_rng(seed)
    by_user = {u: rng.choice(40, size=int(rng.integers(0, 25)), replace=False).tolist()
               for u in range(int(rng.integers(1, 30)))}
    dataset = make_dataset(by_user, 40)
    for ratios in ((0.7, 0.1, 0.2), (0.8, 0.0, 0.2), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5),
                   (1 / 3, 1 / 3, 1 / 3)):
        split = split_per_user(dataset, ratios, seed=seed)
        want = _reference_split(dataset, ratios, seed)
        for view, parts in zip((split.train, split.valid, split.test), want):
            _assert_same_groups(view.items_by_user, parts)


@pytest.mark.parametrize("seed", range(6))
def test_grouping_matches_np_split(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 300))
    max_user = int(rng.integers(1, 40))
    users = rng.integers(max_user, size=n).astype(np.int64)  # gaps and repeats
    items = rng.integers(25, size=n).astype(np.int64)
    user_count = max_user + int(rng.integers(0, 4))  # trailing users with no items
    indptr, grouped = data._group_by_user(users, items, user_count)
    assert indptr.dtype == np.int64 and indptr.shape == (user_count + 1,)
    assert indptr[0] == 0 and indptr[-1] == grouped.size and (np.diff(indptr) >= 0).all()
    slices = [grouped[a:b] for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    _assert_same_groups(slices, _reference_grouping(users, items, user_count))
    ds = data.InteractionDataset([f"u{u}" for u in range(user_count)], [], indptr, grouped)
    _assert_same_groups(ds.items_by_user, slices)


def test_prepare_never_makes_the_per_user_views(tmp_path):
    rng = np.random.default_rng(5)
    lines = [f"u{u}\ti{i}" for u, i in zip(rng.zipf(1.5, 600) % 200, rng.integers(30, size=600))]
    raw = parse_interactions(write_raw(tmp_path / "r.tsv", lines), "TSV")
    dataset_stats(raw)
    core = k_core_filter(raw, 3, 3)
    assert core.user_count < raw.user_count
    split_per_user(core, seed=1)
    assert "items_by_user" not in raw.__dict__
    assert "items_by_user" not in core.__dict__


@pytest.mark.parametrize("seed", range(6))
def test_save_split_bytes_match_the_row_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n_users, n_items = int(rng.integers(1, 25)), int(rng.integers(1, 30))
    by_user = {u: rng.choice(n_items, size=int(rng.integers(0, n_items + 1)), replace=False).tolist()
               for u in range(n_users)}
    by_user[n_users + 1] = []  # two trailing users with no items
    split = split_per_user(make_dataset(by_user, n_items), seed=seed)
    save_split(split, tmp_path)
    for name in ("train", "valid", "test"):
        got = (tmp_path / f"{name}.txt").read_bytes()
        assert got == _reference_pair_bytes(getattr(split, name))


# Pair-file bodies for a vocab of 5000 users and 5000 items; True marks the
# ones np.loadtxt reads, so that the line loop is never reached.
PAIR_FILES = {
    "plain": ("0\t1\n2\t3\n", True),
    "plus-sign": ("+3\t1\n", True),
    "spaces": (" 3 \t 1 \n", True),
    "crlf-and-cr": ("0\t1\r\n2\t3\r4\t5\n", True),
    "blank-lines": ("0\t1\n\n2\t3\n", True),
    "minus-zero": ("-0\t1\n", True),
    "underscore": ("3_000\t1\n", False),
    "arabic-digit": ("\u0663\t1\n", False),
    "float": ("1.0\t1\n", False),
    "hash": ("#1\t1\n", False),
    "past-int64": ("99999999999999999999\t1\n", False),
    "empty": ("", False),
    "only-blank": ("\n\n", False),
    "whitespace-line": ("0\t1\n   \n2\t3\n", False),
    "trailing-tab": ("3\t4\t\n", False),
    "one-column": ("3\n4\n", False),
    "three-columns": ("3\t4\t5\n", False),
    "negative": ("0\t1\n-1\t2\n", False),
    "user-past-vocab": ("0\t1\n5000\t2\n", False),
    "item-past-vocab": ("0\t5000\n", False),
    "byte-order-mark": ("\ufeff0\t1\n", False),
    "not-utf8": (b"0\t1\n\xff\t2\n", False),
}


@pytest.mark.parametrize("name", list(PAIR_FILES))
def test_load_split_bulk_read_matches_the_line_loop(tmp_path, monkeypatch, name):
    body, bulk = PAIR_FILES[name]
    path = tmp_path / "train.txt"
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_bytes(body.encode("utf-8"))
    loop = data._read_pairs_by_line
    try:
        want = loop(path, 5000, 5000)
    except DataFormatError as exc:
        want = str(exc)
    calls = []
    monkeypatch.setattr(data, "_read_pairs_by_line", lambda *a: calls.append(a) or loop(*a))
    try:
        got = data._read_pairs(path, 5000, 5000)
    except DataFormatError as exc:
        assert str(exc) == want
    else:
        assert [col.tolist() for col in got] == [col.tolist() for col in want]
        assert all(col.dtype == np.int64 for col in got)
    assert len(calls) == (0 if bulk else 1)


def test_load_split_reads_saved_files_in_bulk(tmp_path, monkeypatch):
    split = split_per_user(random_dataset(23, n_users=12, n_items=16), seed=2)
    save_split(split, tmp_path)
    monkeypatch.setattr(data, "_read_pairs_by_line", None)  # any call would fail
    loaded = load_split(tmp_path)
    for name in ("train", "valid", "test"):
        _assert_same_groups(getattr(loaded, name).items_by_user,
                            getattr(split, name).items_by_user)


def load_scale_probe(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "scale_probe.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and bench/
    spec = importlib.util.spec_from_file_location("scale_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_scale_probe_builds_its_history_split(monkeypatch):
    """scripts/scale_probe.py builds datasets itself, so this runs its builder."""
    probe = load_scale_probe(monkeypatch)
    split = probe.history_split(3, 2, np.random.default_rng(0))
    for view, size in ((split.train, 3), (split.valid, 0), (split.test, 1)):
        assert view.user_count == 2 and view.item_count == probe.ITEMS
        assert [items.size for items in view.items_by_user] == [size, size]
    for u in range(2):
        assert np.intersect1d(split.train.items_by_user[u], split.test.items_by_user[u]).size == 0
    # the full-split ranking cells, on this tiny split
    seconds, spread = probe.time_full_passes(split, 2, 0)
    assert set(seconds) == set(spread) == {f"{k}.{mode}" for k, _ in probe.KINDS for mode in ("serial", "pool2")}
    assert all(lo <= seconds[cell] <= hi for cell, (lo, hi) in spread.items())


def test_scale_probe_reads_the_peak_rss_of_a_ranking_pass_in_a_fresh_process(monkeypatch, tmp_path):
    probe = load_scale_probe(monkeypatch)
    split = probe.history_split(3, 2, np.random.default_rng(0))
    save_split(split, tmp_path / "prep")
    mb = probe.rank_peak_rss_mb(tmp_path / "prep", split, 0)
    assert math.isfinite(mb) and mb >= 0.0
