#!/usr/bin/env python3
"""Benchmark of the flaicf pipeline: prepare, train every model kind, rank.

Usage, from the root of a checkout:

    python3 bench/run.py --workload short --seed 1 --seconds 50 --trace 0

Every run makes its inputs from --seed with bench/generate.py, then goes,
in rounds, through the entry points a user calls: `flaicf prepare` on the
raw file, `load_split` of the result, a `flaicf train` sweep (FISM, then
five attentive variants started from the FISM checkpoint), and `flaicf
evaluate --split test` of the FLA_NAIS Design 2 model, serial and through
the process pool. Workloads differ in the shape of the generated data,
which decides where the time goes. See bench/README.md.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 it runs the pipeline untraced for half of --seconds, then
as many rounds again with spans around the calls into each flaicf module,
and reports the per-layer metrics and the tracing overhead. Rounds run
for --seconds; below REFERENCE_SECONDS the data shrinks too.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A failed correctness check makes
the run exit with status 1; a checkout without the program exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from generate import K_CORE, Generated, Shape, generate, scaled  # noqa: E402

# The planted core of each workload, and the seeds passed to `flaicf
# prepare` and `flaicf train`, are fixed; --seed varies the raw file around
# the core. At these sizes the number of subnormal parameters a model ends
# up with, which changes its training and ranking speed by up to 2x, is
# chaotic in the data and the seeds, so a seed-varied core would spread
# every attentive-model figure by more than any useful bound. These cores
# were picked because their models do carry subnormal parameters.
CORE_SEEDS = (2, 2)
PROGRAM_SEED = "1"

# Runs shorter than this many seconds (smoke runs) scale the data down.
REFERENCE_SECONDS = 30

WORKLOADS = {
    # Many users with short histories and a validation part: fixed
    # per-instance and per-call costs (Python overhead) dominate.
    "short": (
        Shape(users=60, items=150, clusters=6, median_len=9.0, len_sigma=0.4,
              in_cluster=0.9, zipf=0.6, tail_lines=120_000, core_seed=CORE_SEEDS[0]),
        "0.7,0.1,0.2",
    ),
    # Few users with long heavy-tailed histories and no validation part:
    # work that grows with the history (hidden layer, softmaxes, the
    # candidates x history scoring block) dominates.
    "long": (
        Shape(users=20, items=150, clusters=3, median_len=40.0, len_sigma=0.6,
              in_cluster=0.85, zipf=0.6, tail_lines=120_000, core_seed=CORE_SEEDS[1]),
        "0.8,0,0.2",
    ),
}

WARMUP_SHAPE = Shape(
    users=30, items=60, clusters=2, median_len=12.0, len_sigma=0.5,
    in_cluster=0.8, zipf=0.6, tail_lines=300, core_seed=1,
)

MODEL_FLAGS = {
    "d": "16",
    "beta": "0.7",
    "l2": "1e-6",
    "neg_ratio": "4",
    "lr": "0.05",
}
NEG_RATIO = int(MODEL_FLAGS["neg_ratio"])
FISM_EPOCHS = 3

VARIANTS = (
    ("FISM", ["--model", "FISM"]),
    ("NAIS", ["--model", "NAIS", "--attention_mode", "PROD"]),
    ("FLA_NAIS-D1", ["--model", "FLA_NAIS", "--design", "DESIGN1"]),
    ("FLA_NAIS-D2", ["--model", "FLA_NAIS", "--design", "DESIGN2"]),
    ("DEEPICF", ["--model", "DEEPICF"]),
    ("FLA_DICF-D2", ["--model", "FLA_DICF", "--design", "DESIGN2"]),
)
RANK_VARIANT = "FLA_NAIS-D2"
RANK_KIND = RANK_VARIANT.split("-")[0]  # the model kind names evaluate's output file
SETUP_REPS = 9
MIN_ROUNDS = 3
PREPARES_PER_ROUND = 2
LOADS_PER_ROUND = 25
EVALS_PER_ROUND = 3
PARITY_USERS = 5
PARITY_ITEMS = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_inst_per_s": "inst/s",
    "rank_users_per_s": "users/s",
    "rank_users_per_s.pool": "users/s",
    "prepare_lines_per_s": "lines/s",
    "hr10": "fraction",
    "ndcg10": "fraction",
    "peak_rss_mb": "MB",
}


class Run:
    """Counts operations and failed checks, and runs flaicf commands."""

    def __init__(self, log_path: Path) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: dict = {}
        self.log = open(log_path, "a", encoding="utf-8")
        self.tracer = None

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok

    def cli(self, argv: list[str]) -> float:
        """Wall seconds of one `flaicf` command; a nonzero exit is a failure."""
        from flaicf import cli

        start = time.perf_counter()
        with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        wall = time.perf_counter() - start
        self.check(f"flaicf {' '.join(argv)}", code == 0, f"exit {code}")
        return wall

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def close(self) -> None:
        self.log.close()


def subnormal_count(params) -> int:
    import numpy as np

    tiny = np.finfo(np.float64).tiny
    return int(sum(np.count_nonzero((arr != 0) & (np.abs(arr) < tiny)) for _, arr in params.arrays()))


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def same_bytes(paths: list[Path]) -> bool:
    if not all(p.is_file() for p in paths):
        return False
    first = paths[0].read_bytes()
    return all(p.read_bytes() == first for p in paths[1:])


def prepare_step(run: Run, gen: Generated, ratios: str, rd: Path) -> dict:
    """`flaicf prepare` of the raw file, then `load_split` of the result."""
    from flaicf import data

    run.phase("prepare")
    prep = rd / "prep"
    prepare_walls = [run.cli([
        "prepare", "--raw", str(gen.raw_path), "--format", "MOVIELENS_DAT",
        "--k_user", str(K_CORE), "--k_item", str(K_CORE), "--ratios", ratios,
        "--seed", PROGRAM_SEED, "--out_dir", str(prep),
    ]) for _ in range(PREPARES_PER_ROUND)]
    load_walls = []
    for _ in range(LOADS_PER_ROUND):
        start = time.perf_counter()
        split = data.load_split(prep)
        load_walls.append(time.perf_counter() - start)
    return {"prep": prep, "split": split, "prepare_walls": prepare_walls, "load_walls": load_walls}


def train_step(run: Run, split, prep: Path, rd: Path) -> dict:
    """`flaicf train`: FISM, then each attentive variant from its checkpoint."""
    run.phase("train")
    base = ["--data_dir", str(prep), "--seed", PROGRAM_SEED]
    for key, value in MODEL_FLAGS.items():
        base += [f"--{key}", value]
    per_epoch = split.train.interaction_count * (1 + NEG_RATIO)
    done = {}
    for label, flags in VARIANTS:
        if label == "FISM":
            extra = ["--epochs", str(FISM_EPOCHS), "--patience", str(FISM_EPOCHS)]
        else:
            extra = ["--epochs", "1", "--pretrain", "true",
                     "--pretrain_checkpoint", str(rd / "FISM" / "model.ckpt")]
        wall = run.cli(["train", "--out_dir", str(rd / label)] + flags + base + extra)
        epochs = len(_read_json(rd / label / "metrics.json", [])) or 1
        done[label] = (per_epoch * epochs, wall)
    return done


def rank_step(run: Run, prep: Path, rd: Path, workers: int) -> dict:
    """`flaicf evaluate --split test` of the rank model, serial and pooled in turn."""
    run.phase("rank")
    walls = {"serial": [], "pool": []}
    for rep in range(EVALS_PER_ROUND):
        for mode, count in (("serial", 1), ("pool", workers)):
            walls[mode].append(run.cli([
                "evaluate", "--data_dir", str(prep), "--split", "test",
                "--checkpoint", str(rd / RANK_VARIANT / "model.ckpt"),
                "--eval_workers", str(count), "--out_dir", str(rd / f"eval_{mode}{rep}"),
            ]))
    return walls


def check_rounds(run: Run, out: Path, rounds: int) -> None:
    """Every round, and the pooled and serial rankings, are bitwise equal."""
    dirs = [out / f"round{r}" for r in range(rounds)]
    for name in ("train.txt", "valid.txt", "test.txt", "item_vocab.txt", "stats.json"):
        run.check(f"prepare output {name} identical across rounds",
                  same_bytes([d / "prep" / name for d in dirs]))
    for label, _ in VARIANTS:
        for name in ("model.ckpt", "metrics.json"):
            run.check(f"{label} {name} identical across rounds",
                      same_bytes([d / label / name for d in dirs]))
    evals = [d / f"eval_{mode}{rep}" / f"eval_{RANK_KIND}_test.json"
             for d in dirs for mode in ("serial", "pool") for rep in range(EVALS_PER_ROUND)]
    run.check("pool evaluation bitwise equal to serial", same_bytes(evals))


def quality_step(run: Run, gen: Generated, split, rd: Path, seed: int, quality: bool) -> dict:
    """Checks on the first round's outputs; returns figures for the trace."""
    import numpy as np
    from flaicf import evaluation, params as params_mod, predictors

    run.phase("check")
    stats = _read_json(rd / "prep" / "stats.json", {})
    kept = stats.get("filtered", {})
    run.check(
        "prepare keeps the planted k-core",
        (kept.get("users"), kept.get("items"), kept.get("interactions"))
        == (gen.core_users, gen.core_items, gen.core_interactions),
        f"kept {kept}, expected {gen.core_users}/{gen.core_items}/{gen.core_interactions}",
    )
    counts = {name: getattr(split, name).interaction_count for name in ("train", "valid", "test")}
    run.check("stats.json splits equal load_split counts", counts == stats.get("splits"),
              f"{counts} vs {stats.get('splits')}")

    ranking = _read_json(rd / "eval_serial0" / f"eval_{RANK_KIND}_test.json", {})
    users = sum(1 for items in split.test.items_by_user if items.size)
    run.check("users_evaluated equals users with test items",
              ranking.get("users_evaluated") == users,
              f"{ranking.get('users_evaluated')} vs {users}")
    hr = ranking.get("hr", float("nan"))
    baselines = {}
    for name in ("RANDOM", "POP"):
        run.cli(["evaluate", "--data_dir", str(rd / "prep"), "--split", "test",
                 "--baseline", name, "--out_dir", str(rd / "eval_baselines")])
        baselines[name] = _read_json(
            rd / "eval_baselines" / f"eval_{name}_test.json", {}).get("hr", float("nan"))
    if quality:
        run.check(f"{RANK_VARIANT} hr10 above RANDOM", hr > baselines["RANDOM"],
                  f"hr10 {hr} vs RANDOM {baselines['RANDOM']}")
    run.notes["test_hr10"] = {RANK_VARIANT: hr, **baselines}

    rng = np.random.default_rng(seed)
    subnormals = {}
    for label, _ in VARIANTS:
        path = rd / label / "model.ckpt"
        if not run.check(f"{label} checkpoint written", path.is_file()):
            continue
        records = _read_json(rd / label / "metrics.json", [])
        run.check(f"{label} losses finite", bool(records) and all(
            math.isfinite(r["loss"]) and math.isfinite(r["hr"]) for r in records), str(records))
        params, config = params_mod.load_checkpoint(path)
        run.check(f"{label} parameters finite", params.all_finite())
        subnormals[label] = subnormal_count(params)
        scorer = evaluation.model_scorer(params, config, split)
        worst = 0.0
        finite = True
        sample = rng.choice(split.train.user_count, size=min(PARITY_USERS, split.train.user_count),
                            replace=False)
        for user in sample.tolist():
            scores = scorer(user)
            finite &= bool(np.all(np.isfinite(scores)))
            history = split.train.items_by_user[user]
            candidates = np.setdiff1d(np.arange(split.train.item_count), history)
            for item in rng.choice(candidates, size=PARITY_ITEMS, replace=False).tolist():
                ctx = predictors.PredictionContext(user, item, history)
                single = predictors.predict(config.model_kind, ctx, params, config)
                worst = max(worst, abs(scores[item] - single) / max(1.0, abs(single)))
        run.check(f"{label} scores finite", finite)
        run.check(f"{label} scorer/instance parity", worst <= 1e-9, f"max rel diff {worst:.3e}")

    ranked = sum(
        split.train.item_count - split.train.items_by_user[u].size - split.valid.items_by_user[u].size
        for u in range(split.test.user_count) if split.test.items_by_user[u].size
    )
    prep = rd / "prep"
    return {
        "hr10": hr,
        "ndcg10": ranking.get("ndcg", float("nan")),
        "subnormals": subnormals,
        "useful_score_frac": ranked / (split.train.item_count * users) if users else 0.0,
        "kcore_keep_frac": kept.get("interactions", 0) / stats.get("raw", {}).get("interactions", 1),
        "bytes_written": dir_bytes(prep),
        "bytes_read": gen.raw_path.stat().st_size + dir_bytes(prep) - (prep / "stats.json").stat().st_size,
    }


def pipeline(run: Run, gen: Generated, ratios: str, seed: int, out: Path,
             seconds: float = 0.0, rounds: int = 0, quality: bool = True) -> dict:
    """Rounds of prepare, load, train sweep and ranking, then the checks.

    With `rounds` it runs exactly that many rounds; otherwise it starts
    rounds while the next one is expected to end within `seconds`, and at
    least MIN_ROUNDS. Every round does the same work. Each rate is the work
    of one call over the interquartile mean of that call's wall times: the
    rounds interleave every kind of work, the trimmed quarters drop the
    first-call outliers and the rounds that a slow or a fast stretch of a
    shared machine falls on, and the mean of the middle half stays steady
    where single calls are bimodal (as `prepare` is, 0.45 or 0.65 s).
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workers = min(2, os.cpu_count() or 1)
    start = time.perf_counter()
    work: dict[str, float] = {}
    walls: dict[str, list[float]] = {}

    def add(name, units, wall):
        work[name] = units
        walls.setdefault(name, []).append(wall)

    def more(done):
        if rounds:
            return done < rounds
        elapsed = time.perf_counter() - start
        return done < MIN_ROUNDS or elapsed * (done + 1) / done <= seconds

    r = 0
    while more(r):
        rd = out / f"round{r}"
        prepared = prepare_step(run, gen, ratios, rd)
        split = prepared["split"]
        for wall in prepared["prepare_walls"]:
            add("prepare_lines_per_s", gen.raw_lines, wall)
        pairs = sum(getattr(split, name).interaction_count for name in ("train", "valid", "test"))
        for wall in prepared["load_walls"]:
            add("load_pairs_per_s", pairs, wall)
        for label, (instances, wall) in train_step(run, split, prepared["prep"], rd).items():
            add(f"train_inst_per_s.{label}", instances, wall)
        ranked = rank_step(run, prepared["prep"], rd, workers)
        users = sum(1 for items in split.test.items_by_user if items.size)
        for mode, name in (("serial", "rank_users_per_s"), ("pool", "rank_users_per_s.pool")):
            for wall in ranked[mode]:
                add(name, users, wall)
        r += 1
    wall_s = time.perf_counter() - start
    check_rounds(run, out, r)
    checked = quality_step(run, gen, split, out / "round0", seed, quality)
    run.phase("")
    typical = {name: interquartile_mean(w) for name, w in walls.items()}
    figures = {name: work[name] / typical[name] for name in walls}
    sweep = [f"train_inst_per_s.{label}" for label, _ in VARIANTS]
    figures["train_inst_per_s"] = sum(work[n] for n in sweep) / sum(typical[n] for n in sweep)
    return {
        "wall_s": wall_s,
        "rounds": r,
        "figures": figures,
        "walls": walls,
        **checked,
    }


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values (all of them below four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def end_to_end(setup_s: float, result: dict) -> dict:
    values = dict(result["figures"], setup_s=setup_s, peak_rss_mb=peak_rss_mb(),
                  hr10=result["hr10"], ndcg10=result["ndcg10"])
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def per_layer(tracer, untraced: dict, traced: dict, root_s: float) -> dict:
    """Per-layer figures of the traced pass, with units."""
    t = tracer
    rounds = traced["rounds"]  # counts below are per round
    out: dict[str, tuple[float, str]] = {}
    for layer, seconds in t.layer_self().items():
        out[f"layer.{layer}.self_s"] = (seconds, "s")
    out["trace.wall_s"] = (root_s, "s")
    out["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")

    instances = t.counted("training.instances", "train")
    draws = t.counted("training.draws", "train")
    out["training.epoch_instances.s"] = (t.total_of("training.epoch_instances", "train"), "s")
    out["training.epoch_instances.useful_frac"] = (
        t.counted("training.negatives", "train") / draws if draws else 0.0, "fraction")
    out["training.loop_self.us"] = (
        1e6 * t.self_of("training.train", "train") / instances if instances else 0.0, "us")
    for label, _ in VARIANTS:
        n = t.counted("training.instances", "train", label)
        out[f"training.loop_self.us.{label}"] = (
            1e6 * t.self_of("training.train", "train", label) / n if n else 0.0, "us")
    for name in ("predictors.forward_cache", "gradients.backward", "training.adagrad_step",
                 "attention.hidden", "attention.item_softmax", "attention.row_softmax",
                 "attention.col_softmax"):
        out[f"{name}.us"] = (1e6 * t.mean_of(name, "train"), "us")
    out["evaluation.validate.s"] = (t.total_of("evaluation.validate", "train"), "s")
    for name in ("params.save_checkpoint", "params.load_checkpoint", "data.load_split"):
        out[f"{name}.ms"] = (1e3 * t.mean_of(name, "train"), "ms")

    samples = sorted(t.samples_of("evaluation.score_user", "rank"))
    p50 = statistics.median(samples) if samples else 0.0
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else p50
    out["evaluation.score_user.ms.p50"] = (1e3 * p50, "ms")
    out["evaluation.score_user.ms.p90"] = (1e3 * p90, "ms")
    out["evaluation.score_user.samples"] = (len(samples), "count")
    out["evaluation.score_chunk.ms"] = (1e3 * t.mean_of("evaluation.score_chunk", "rank"), "ms")
    out["evaluation.score_chunk.calls"] = (t.calls_of("evaluation.score_chunk", "rank") / rounds, "count")
    ranks = t.calls_of("evaluation.rank_items", "rank")
    out["evaluation.rank_items.self_ms"] = (
        1e3 * t.self_of("evaluation.rank_items", "rank") / ranks if ranks else 0.0, "ms")
    out["evaluation.useful_score_frac"] = (traced["useful_score_frac"], "fraction")
    figures = untraced["figures"]
    out["evaluation.pool_speedup"] = (
        figures["rank_users_per_s.pool"] / figures["rank_users_per_s"], "ratio")
    for label, _ in VARIANTS:
        out[f"train_inst_per_s.{label}"] = (figures[f"train_inst_per_s.{label}"], "inst/s")
    out["load_pairs_per_s"] = (figures["load_pairs_per_s"], "pairs/s")

    for name in ("parse_interactions", "k_core_filter", "split_per_user", "save_split",
                 "dataset_stats", "load_split"):
        out[f"data.{name}.s"] = (t.mean_of(f"data.{name}", "prepare"), "s")
    out["data.kcore_keep_frac"] = (traced["kcore_keep_frac"], "fraction")
    out["data.bytes_written"] = (traced["bytes_written"], "bytes")
    out["data.bytes_read"] = (traced["bytes_read"], "bytes")

    for label, _ in VARIANTS:
        out[f"training.instances.{label}"] = (
            t.counted("training.instances", "train", label) / rounds, "count")
        out[f"params.subnormal_count.{label}"] = (traced["subnormals"].get(label, 0), "count")
    out["params.subnormal_count"] = (traced["subnormals"].get(RANK_VARIANT, 0), "count")
    for label, _ in VARIANTS[1:]:
        units = t.counted("attention.relu_units", "train", label)
        logits = t.counted("attention.logits", "train", label)
        out[f"attention.relu_active_frac.{label}"] = (
            t.counted("attention.relu_active", "train", label) / units if units else 0.0, "fraction")
        out[f"attention.clamp_frac.{label}"] = (
            t.counted("attention.clamped", "train", label) / logits if logits else 0.0, "fraction")
    return out


def machine() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "platform": platform.platform(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _read_json(path: Path, default):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return default


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flaicf" / "cli.py").is_file():
        print(f"error: no flaicf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import flaicf.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import flaicf: {exc}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work / "flaicf.log")
    shape, ratios = WORKLOADS[args.workload]
    shape = scaled(shape, min(1.0, args.seconds / REFERENCE_SECONDS))

    setup_walls = []
    gens = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        gens.append(generate(shape, args.seed, work / f"gen{rep}"))
        setup_walls.append(time.perf_counter() - start)
    gen = gens[0]
    raw = gen.raw_path.read_bytes()
    run.check("generator deterministic for a seed",
              all(g.raw_path.read_bytes() == raw for g in gens[1:]))
    del raw
    for rep in range(1, SETUP_REPS):
        shutil.rmtree(work / f"gen{rep}")
    setup_s = statistics.median(setup_walls)

    # Warm-up: the first pass through numpy, BLAS and the process pool is
    # slower than later ones, and users train more than one model per process.
    warm = generate(WARMUP_SHAPE, args.seed, work / "warm")
    pipeline(run, warm, "0.7,0.1,0.2", args.seed, work / "warm_run", rounds=1, quality=False)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "shape": shape.__dict__, "machine": machine()}
    # A traced run spends half its time untraced, then runs as many rounds
    # again with tracing, so the tracing overhead compares equal work.
    untraced = pipeline(run, gen, ratios, args.seed, work / "run",
                        seconds=args.seconds / (2 if args.trace else 1))
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        run.tracer = tracer
        root = tracer.open("bench.pipeline")
        try:
            traced = pipeline(run, gen, ratios, args.seed, work / "run_traced",
                              rounds=untraced["rounds"])
        finally:
            tracer.close(root)
            tracer.uninstall()
        root_s = tracer.end[root] - tracer.start[root]
        tracer.write(work / "spans.npz")
        metrics = per_layer(tracer, untraced, traced, root_s)
    else:
        metrics = end_to_end(setup_s, untraced)
    run.close()

    record.update({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": run.notes,
        "failures": run.failures,
        "setup_walls_s": setup_walls,
        "walls": untraced["walls"],
        "pipeline_wall_s": untraced["wall_s"],
        "subnormals": untraced["subnormals"],
    })
    (work / "result.json").write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")
    for rep_dir in ("gen0", "warm", "warm_run", "run", "run_traced"):
        shutil.rmtree(work / rep_dir, ignore_errors=True)

    m = record["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} blas={m['blas']} threads_env={m['threads_env']}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"test_hr10={run.notes.get('test_hr10')}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
