"""Train the benchmark's model sweep on a prepared split and print artifact digests.

    python3 scripts/digest_sweep.py --data_dir D --out_dir O
    python3 scripts/digest_sweep.py --workload short|long --out_dir O

Runs, through flaicf.cli.main, FISM for 3 epochs, then NAIS (PROD and
CONCAT), FLA_NAIS and FLA_DICF (Designs 1 and 2) and DEEPICF for 1 epoch
each from the FISM checkpoint, with the flags bench/run.py trains with,
and `evaluate --split test` of every model, serially and with
`--eval_workers 2` into O/<variant>/pool; it exits nonzero if the two
evaluation files of a variant differ. It writes the output of
`flaicf gradcheck` for each of those eight variants (seed 0, the sweep's
d and beta) to O/gradcheck/<variant>.txt, so the digests cover the
gradients too. With --workload, it first writes that benchmark
workload's raw file (bench/generate.py, seed 1) under O/raw and runs
`flaicf prepare` on it into O/prep, with the flags bench/run.py prepares
with, and trains on that split; the digests then cover the split files
too. It prints one `sha256  path` line per file written, the path
relative to O. The data_dir, out_dir and pretrain_checkpoint values in
config.used are replaced by placeholders before hashing, so two
checkouts that train the same models print the same lines; diff the
output of two checkouts to check that a change leaves every artifact
bitwise equal.
"""

import argparse
import contextlib
import hashlib
import os
import sys
from pathlib import Path

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from flaicf import cli

# the model flags, seed and epochs of bench/run.py
FLAGS = ["--d", "16", "--beta", "0.7", "--l2", "1e-6", "--neg_ratio", "4", "--lr", "0.05",
         "--seed", "1"]
FISM_EPOCHS = 3
VARIANTS = (
    ("FISM", ["--model", "FISM"]),
    ("NAIS", ["--model", "NAIS", "--attention_mode", "PROD"]),
    ("NAIS-CONCAT", ["--model", "NAIS", "--attention_mode", "CONCAT"]),
    ("FLA_NAIS-D1", ["--model", "FLA_NAIS", "--design", "DESIGN1"]),
    ("FLA_NAIS-D2", ["--model", "FLA_NAIS", "--design", "DESIGN2"]),
    ("DEEPICF", ["--model", "DEEPICF"]),
    ("FLA_DICF-D1", ["--model", "FLA_DICF", "--design", "DESIGN1"]),
    ("FLA_DICF-D2", ["--model", "FLA_DICF", "--design", "DESIGN2"]),
)
# the model width and smoothing of FLAGS, at gradcheck's seed 0
GRADCHECK_FLAGS = ["--d", "16", "--beta", "0.7", "--seed", "0"]
PATH_KEYS = ("data_dir", "out_dir", "pretrain_checkpoint")


def run(argv: list[str], output=sys.stderr) -> None:
    # a command's printed lines go to output; stdout holds only digests
    with contextlib.redirect_stdout(output):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"flaicf {' '.join(argv)} exited {code}")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "config.used":
        lines = data.decode("utf-8").splitlines(keepends=True)
        data = "".join(
            f"{line.split('=', 1)[0]}=<path>\n" if line.split("=", 1)[0] in PATH_KEYS else line
            for line in lines
        ).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def prepare_workload(workload: str, out: Path) -> Path:
    """The workload's raw file under out/raw, prepared into out/prep as bench/run.py does."""
    from generate import K_CORE, generate
    from run import PROGRAM_SEED, WORKLOADS

    shape, ratios = WORKLOADS[workload]
    raw = generate(shape, 1, out / "raw").raw_path
    prep = out / "prep"
    run(["prepare", "--raw", str(raw), "--format", "MOVIELENS_DAT", "--k_user", str(K_CORE),
         "--k_item", str(K_CORE), "--ratios", ratios, "--seed", PROGRAM_SEED,
         "--out_dir", str(prep)])
    return prep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--data_dir", help="prepared split directory")
    source.add_argument("--workload", choices=("short", "long"),
                        help="prepare the split of this benchmark workload (seed 1) first")
    ap.add_argument("--out_dir", required=True, help="directory for every run's output")
    args = ap.parse_args()
    out = Path(args.out_dir)
    if args.workload:
        args.data_dir = str(prepare_workload(args.workload, out))
    fism_ckpt = out / "FISM" / "model.ckpt"
    for label, flags in VARIANTS:
        run_dir = out / label
        if label == "FISM":
            extra = ["--epochs", str(FISM_EPOCHS), "--patience", str(FISM_EPOCHS)]
        else:
            extra = ["--epochs", "1", "--pretrain", "true", "--pretrain_checkpoint", str(fism_ckpt)]
        run(["train", "--data_dir", args.data_dir, "--out_dir", str(run_dir)] + flags + FLAGS + extra)
        evaluate = ["evaluate", "--data_dir", args.data_dir, "--split", "test",
                    "--checkpoint", str(run_dir / "model.ckpt")]
        run(evaluate + ["--out_dir", str(run_dir)])
        run(evaluate + ["--eval_workers", "2", "--out_dir", str(run_dir / "pool")])
        for serial in run_dir.glob("eval_*.json"):
            if serial.read_bytes() != (run_dir / "pool" / serial.name).read_bytes():
                raise SystemExit(f"{label}: pooled {serial.name} differs from the serial one")
    (out / "gradcheck").mkdir(parents=True, exist_ok=True)
    for label, flags in VARIANTS:
        with open(out / "gradcheck" / f"{label}.txt", "w", encoding="utf-8") as fh:
            run(["gradcheck"] + flags + GRADCHECK_FLAGS, fh)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{digest(path)}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
