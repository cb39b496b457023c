"""Time full ranking and data preparation at the paper's scale and write BENCH_scale_<label>.json.

    python3 scripts/scale_probe.py --label L [--users 8] [--reps 5] [--seed 0]

ML-1M keeps 3706 items, and the attentive kinds' ranking cost grows with
candidates x history x d, so the benchmark's 150-item catalogue cannot
show it. This probe builds, from --seed, one in-memory split per history
length m in 30, 100 and 300: --users users, each with m training items
and one test item drawn uniformly from 3706, and random parameters
(d = d' = 16, beta 0.7, every array drawn from N(0, 0.1)). For NAIS,
FLA_NAIS Designs 1 and 2 and FLA_DICF Design 2 it times
evaluation.evaluate_model on the test part serially and with 2 workers,
--reps times after one warm-up call, and reports the median run as
milliseconds per user, with the fastest and the slowest beside it. The
median, not the fastest: on a shared machine the fastest of 5 runs of one
checkout swung up to 2.7x between probe runs.

The benchmark's raw files hold about 120k lines, so they cannot show the
cost of preparing ML-1M either. The probe writes an ML-1M-shaped raw file
with bench/generate.py (6040 users, 3706 items, a 5-core of about 868k
pairs inside 1.05M lines, generator seed 1, fixed whatever --seed is) to
a temporary directory, then times `flaicf prepare --k_user 5 --k_item 5`
of it and `data.load_split` of the result, --reps times each, and reports
their medians in milliseconds. It also runs that `prepare` once in a fresh
Python process and reports how far it raised the process's peak resident
set, in MB: the peak after it minus the peak before it, with the imports
done. The peak is read as VmHWM from /proc/self/status (Linux), because
an exec'd child's `ru_maxrss` starts at its parent's peak, which here is
already that of several `prepare` runs.

Ranking groups users, and a group whose histories overlap computes each
(candidate, history item) pair once for all its users. The m-cells'
histories are drawn independently from 3706 items and barely overlap, so
their users are ranked one at a time and cannot show what a full split's
ranking costs. The probe therefore also ranks every test user of that
prepared ML-1M-shaped split (6040 users) with random parameters drawn as
above, for each kind, serially and with 2 workers, --reps times with no
warm-up (one pass takes tens of seconds), and reports the median pass in
seconds with the fastest and the slowest beside it. It also runs one
serial NAIS pass of that split, as `flaicf evaluate` of a checkpoint of
such parameters, in a fresh Python process, and reports how far it raised
that process's peak resident set (VmHWM, as for `prepare`), in MB.

Nothing is trained and nothing is kept but BENCH_scale_<label>.json at
the root of the checkout, which also holds the commit and the machine
facts. To compare two checkouts, run it in each, alternating, on the
same machine; it is not part of the test suite.
"""

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from flaicf.cli import main as flaicf_main  # noqa: E402
from flaicf.config import ModelConfig  # noqa: E402
from flaicf.data import InteractionDataset, SplitDataset, load_split  # noqa: E402
from flaicf.evaluation import evaluate_model  # noqa: E402
from flaicf.params import array_shapes, init_parameters, save_checkpoint  # noqa: E402
from generate import K_CORE, Shape, generate  # noqa: E402  (bench/generate.py)
from run import machine  # noqa: E402  (bench/run.py)

ITEMS = 3706  # ML-1M after its 5-core
HISTORIES = (30, 100, 300)
KINDS = (
    ("NAIS", {"model_kind": "NAIS"}),
    ("FLA_NAIS-D1", {"model_kind": "FLA_NAIS", "design": "DESIGN1"}),
    ("FLA_NAIS-D2", {"model_kind": "FLA_NAIS", "design": "DESIGN2"}),
    ("FLA_DICF-D2", {"model_kind": "FLA_DICF", "design": "DESIGN2"}),
)
WORKERS = (("serial", 1), ("pool2", 2))
D = 16
BETA = 0.7
PARAM_SCALE = 0.1
# 6040 users as in ML-1M; the generator tops up every item to 5 users.
ML1M_SHAPE = Shape(users=6040, items=ITEMS, clusters=8, median_len=96, len_sigma=0.9,
                   in_cluster=0.8, zipf=0.6, tail_lines=100_000, core_seed=1)
ML1M_SEED = 1


def history_split(m: int, users: int, rng: np.random.Generator) -> SplitDataset:
    """users users with m training items and one test item each, none in validation."""
    train, test = [], []
    for _ in range(users):
        items = np.sort(rng.choice(ITEMS, size=m + 1, replace=False))
        held = int(rng.integers(m + 1))
        train.append(np.delete(items, held))
        test.append(items[held:held + 1])
    user_ids = [str(u) for u in range(users)]
    item_ids = [str(i) for i in range(ITEMS)]
    parts = (InteractionDataset(user_ids, item_ids, np.arange(users + 1, dtype=np.int64) * size,
                                np.concatenate([np.empty(0, dtype=np.int64), *groups]))
             for size, groups in ((m, train), (0, []), (1, test)))
    return SplitDataset(*parts, ratios=(1.0, 0.0, 0.0), seed=0)


def random_parameters(config: ModelConfig, users: int, seed: int, items: int = ITEMS):
    params = init_parameters(config, items, users, seed=seed)
    rng = np.random.default_rng(seed)
    for name, shape in array_shapes(config, items, users).items():
        params.get(name)[...] = rng.normal(0.0, PARAM_SCALE, size=shape)
    return params


# Run in a fresh interpreter: flaicf with the given arguments, then print
# the MB by which it raised the peak resident set.
PEAK_RSS_PROGRAM = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from flaicf.cli import main

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak_kb()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print((peak_kb() - before) / 1024)
sys.exit(code)
"""


def peak_rss_mb(argv: list[str]) -> float:
    """MB by which `flaicf <argv>` raises the peak RSS of a fresh process."""
    done = subprocess.run([sys.executable, "-c", PEAK_RSS_PROGRAM, str(ROOT / "src"), *argv],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"flaicf {argv[0]} exited with {done.returncode}: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def rank_peak_rss_mb(data_dir: Path, split: SplitDataset, seed: int) -> float:
    """MB by which one serial NAIS ranking pass of the test users of the
    split saved in data_dir (`flaicf evaluate` of a checkpoint of
    random_parameters) raises the peak RSS of a fresh process."""
    config = ModelConfig(d=D, beta=BETA, model_kind="NAIS")
    params = random_parameters(config, split.train.user_count, seed, split.train.item_count)
    with tempfile.TemporaryDirectory(prefix="scale_probe_rank_") as tmp:
        save_checkpoint(params, config, Path(tmp) / "model.ckpt")
        return peak_rss_mb(["evaluate", "--data_dir", str(data_dir), "--split", "test",
                            "--checkpoint", str(Path(tmp) / "model.ckpt"), "--eval_workers", "1",
                            "--out_dir", tmp])


def time_prepare(reps: int, seed: int) -> tuple[dict, SplitDataset]:
    """Medians of reps `flaicf prepare` calls on the ML-1M-shaped raw file
    and of reps `load_split` calls on their output, the peak RSS that one
    more `prepare` adds in a fresh process, and the peak RSS of one ranking
    pass of the prepared split (rank_peak_rss_mb); and the split loaded."""
    with tempfile.TemporaryDirectory(prefix="scale_probe_") as tmp:
        gen = generate(ML1M_SHAPE, ML1M_SEED, Path(tmp))
        out = Path(tmp) / "prepared"
        argv = ["prepare", "--raw", str(gen.raw_path), "--format", "MOVIELENS_DAT",
                "--k_user", str(K_CORE), "--k_item", str(K_CORE), "--out_dir", str(out)]
        prepare_s, load_s = [], []
        for _ in range(reps):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = flaicf_main(argv)
            prepare_s.append(time.perf_counter() - start)
            if code != 0:
                raise SystemExit(f"flaicf prepare exited with {code}")
            start = time.perf_counter()
            split = load_split(out)
            load_s.append(time.perf_counter() - start)
        prepare_rss_mb = peak_rss_mb(argv)
        rank_rss_mb = rank_peak_rss_mb(out, split, seed)
    pairs = sum(part.interaction_count for part in (split.train, split.valid, split.test))
    core = (gen.core_users, gen.core_items, gen.core_interactions)
    if (split.train.user_count, split.train.item_count, pairs) != core:
        raise SystemExit(f"prepare kept {split.train.user_count} users, {split.train.item_count} "
                         f"items and {pairs} pairs, not the generator's {core}")
    return {
        "raw_lines": gen.raw_lines,
        "core_users": gen.core_users,
        "core_items": gen.core_items,
        "core_pairs": gen.core_interactions,
        "statistic": "median of reps",
        "prepare_ms": 1e3 * statistics.median(prepare_s),
        "load_split_ms": 1e3 * statistics.median(load_s),
        "prepare_peak_rss_mb": prepare_rss_mb,
        "rank_peak_rss_mb": rank_rss_mb,
    }, split


def time_full_passes(split: SplitDataset, reps: int, seed: int) -> tuple[dict, dict]:
    """Seconds of evaluate_model over every test user of split, per kind
    and worker count: the median of reps passes, and [fastest, slowest]."""
    median, spread = {}, {}
    users, items = split.train.user_count, split.train.item_count
    for label, kind in KINDS:
        config = ModelConfig(d=D, beta=BETA, **kind)
        params = random_parameters(config, users, seed, items)
        for mode, workers in WORKERS:
            walls = []
            for _ in range(reps):
                start = time.perf_counter()
                evaluate_model(params, config, split, "test", workers=workers)
                walls.append(time.perf_counter() - start)
            cell = f"{label}.{mode}"
            median[cell], spread[cell] = statistics.median(walls), [min(walls), max(walls)]
            print(f"{label:12s} {mode:6s} all {users} users {median[cell]:8.2f} s "
                  f"(min {min(walls):.2f}, max {max(walls):.2f})", flush=True)
    return median, spread


def commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--users", type=int, default=8, help="users per history length")
    parser.add_argument("--reps", type=int, default=5,
                        help="timed runs per ranking cell, full-split pass, prepare and "
                             "load_split (the median counts)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.users < 1 or args.reps < 1:
        parser.error("--users and --reps must be >= 1")

    started = time.perf_counter()
    prepare, ml1m = time_prepare(args.reps, args.seed)
    print(f"prepare {prepare['raw_lines']} lines {prepare['prepare_ms']:8.1f} ms "
          f"(peak RSS +{prepare['prepare_peak_rss_mb']:.1f} MB), "
          f"load_split {prepare['load_split_ms']:7.1f} ms, "
          f"NAIS ranking pass peak RSS +{prepare['rank_peak_rss_mb']:.1f} MB", flush=True)
    rng = np.random.default_rng(args.seed)
    splits = {m: history_split(m, args.users, rng) for m in HISTORIES}
    ms_per_user: dict[str, dict] = {}
    ms_range: dict[str, dict] = {}
    for label, kind in KINDS:
        config = ModelConfig(d=D, beta=BETA, **kind)
        params = random_parameters(config, args.users, args.seed)
        for m, split in splits.items():
            for mode, workers in WORKERS:
                evaluate_model(params, config, split, "test", workers=workers)  # warm-up
                walls = []
                for _ in range(args.reps):
                    start = time.perf_counter()
                    evaluate_model(params, config, split, "test", workers=workers)
                    walls.append(time.perf_counter() - start)
                per_user = [1e3 * wall / args.users for wall in walls]
                cell = f"{label}.{mode}"
                ms_per_user.setdefault(cell, {})[f"m{m}"] = statistics.median(per_user)
                ms_range.setdefault(cell, {})[f"m{m}"] = [min(per_user), max(per_user)]
                print(f"{label:12s} {mode:6s} m={m:3d} {statistics.median(per_user):8.2f} ms/user "
                      f"(min {min(per_user):.2f}, max {max(per_user):.2f})", flush=True)
    full_s, full_range = time_full_passes(ml1m, args.reps, args.seed)

    record = {
        "label": args.label,
        "commit": commit(),
        "items": ITEMS,
        "histories": list(HISTORIES),
        "users_per_history": args.users,
        "reps": args.reps,
        "seed": args.seed,
        "d": D,
        "beta": BETA,
        "statistic": "median of reps, evaluate_model wall / users; ms_per_user_range holds [min, max]",
        "ms_per_user": ms_per_user,
        "ms_per_user_range": ms_range,
        "prepare": prepare,
        "full_pass": {
            "users": ml1m.train.user_count,
            "test_users": int(np.count_nonzero(np.diff(ml1m.test.indptr))),
            "items": ml1m.train.item_count,
            "train_pairs": ml1m.train.interaction_count,
            "statistic": "median of reps, evaluate_model wall over every test user; s_range holds [min, max]",
            "s": full_s,
            "s_range": full_range,
        },
        "wall_s": time.perf_counter() - started,
        "machine": machine(),
    }
    out = ROOT / f"BENCH_scale_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
