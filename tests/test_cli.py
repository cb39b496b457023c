"""End-to-end command tests on synthetic data, driven through main(argv)."""

import argparse
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from flaicf.cli import COMMANDS, RUN_KEYS, build_parser, main
from flaicf.config import ModelConfig, ModelKind
from flaicf.params import init_parameters, load_checkpoint, save_checkpoint


def synth_raw(path: Path, seed: int = 7, users: int = 24, items: int = 30) -> Path:
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(users):
        chosen = rng.choice(items, size=int(rng.integers(6, 12)), replace=False)
        for i in chosen:
            lines.append(f"{u}::{i}::5::0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def prepared(tmp_path):
    raw = synth_raw(tmp_path / "raw.dat")
    data = tmp_path / "data"
    code = main([
        "prepare", "--raw", str(raw), "--format", "MOVIELENS_DAT",
        "--k_user", "3", "--k_item", "2", "--out_dir", str(data), "--seed", "5",
    ])
    assert code == 0
    return data


def run_train(data, out, extra=()):
    return main([
        "train", "--data_dir", str(data), "--out_dir", str(out),
        "--model", "FLA_NAIS", "--design", "DESIGN2", "--d", "6", "--d_prime", "6",
        "--epochs", "2", "--lr", "0.05", "--seed", "3", "--pretrain", "0",
        *extra,
    ])


def test_prepare_writes_split_and_stats(prepared):
    for name in ("train.txt", "valid.txt", "test.txt", "user_vocab.txt", "item_vocab.txt"):
        assert (prepared / name).exists(), name
    stats = json.loads((prepared / "stats.json").read_text())
    assert stats["filtered"]["users"] > 0
    assert 0.0 <= stats["filtered"]["sparsity"] <= 1.0


def test_train_writes_checkpoint_and_logs(prepared, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_train(prepared, out) == 0
    printed = capsys.readouterr().out
    lines = [l for l in printed.splitlines() if l.startswith("epoch=")]
    assert len(lines) == 2
    pattern = r"^epoch=\d+ loss=\d+\.\d{6} split=valid hr@10=\d+\.\d{6} ndcg@10=\d+\.\d{6}$"
    for line in lines:
        assert re.match(pattern, line), line
    assert (out / "model.ckpt").exists()
    assert (out / "config.used").exists()
    log_lines = (out / "metrics.log").read_text().strip().splitlines()
    assert log_lines == lines
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics) == 2 and metrics[0]["epoch"] == 1


def test_train_with_pretraining(prepared, tmp_path):
    out = tmp_path / "run_pre"
    code = main([
        "train", "--data_dir", str(prepared), "--out_dir", str(out),
        "--model", "FLA_NAIS", "--d", "4", "--epochs", "1",
        "--pretrain", "1", "--pretrain_epochs", "1", "--lr", "0.05", "--seed", "3",
    ])
    assert code == 0
    assert (out / "fism_pretrain.ckpt").exists()
    assert (out / "pretrain_metrics.log").exists()
    _, fism_cfg = load_checkpoint(out / "fism_pretrain.ckpt")
    assert str(fism_cfg.model_kind) == "FISM"


def test_evaluate_checkpoint_and_baselines(prepared, tmp_path, capsys):
    out = tmp_path / "run"
    run_train(prepared, out)
    capsys.readouterr()
    code = main([
        "evaluate", "--data_dir", str(prepared), "--checkpoint", str(out / "model.ckpt"),
        "--split", "test", "--out_dir", str(out),
    ])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert re.match(r"^FLA_NAIS split=test hr@10=\d+\.\d{6} ndcg@10=\d+\.\d{6}$", line)
    payload = json.loads((out / "eval_FLA_NAIS_test.json").read_text())
    assert payload["split"] == "test"

    for baseline in ("RANDOM", "POP", "ITEMKNN"):
        code = main([
            "evaluate", "--data_dir", str(prepared), "--baseline", baseline, "--split", "test",
        ])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith(f"{baseline} split=test hr@10=")


def test_hr_grows_with_n(prepared, tmp_path, capsys):
    out = tmp_path / "run"
    run_train(prepared, out)
    capsys.readouterr()
    values = {}
    for n in (5, 10):
        main([
            "evaluate", "--data_dir", str(prepared), "--checkpoint", str(out / "model.ckpt"),
            "--split", "test", "--eval_n", str(n),
        ])
        line = capsys.readouterr().out.strip()
        values[n] = float(re.search(r"hr@\d+=(\d+\.\d+)", line).group(1))
    assert values[5] <= values[10]


def test_sweep_expands_comma_lists(prepared, tmp_path):
    out = tmp_path / "sweep"
    code = run_train(prepared, out, extra=("--beta", "0.1,0.3,0.5,0.7,0.9"))
    assert code == 0
    run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert run_dirs == ["beta0.1", "beta0.3", "beta0.5", "beta0.7", "beta0.9"]
    for d in run_dirs:
        assert (out / d / "model.ckpt").exists()
        assert (out / d / "metrics.log").exists()


def test_sweep_cartesian_product(prepared, tmp_path):
    out = tmp_path / "grid"
    code = run_train(prepared, out, extra=("--beta", "0.5,0.7", "--lr", "0.01,0.05"))
    assert code == 0
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(dirs) == 4
    for d in dirs:
        assert "beta" in d and "lr" in d


def test_config_file_with_flag_override(prepared, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=NAIS\nd=4\nd_prime=4\nepochs=1\nlr=0.05\npretrain=0\nseed=1\n")
    out = tmp_path / "cfg_run"
    code = main([
        "train", "--config", str(cfg), "--data_dir", str(prepared),
        "--out_dir", str(out), "--d", "6",  # flag beats file
    ])
    assert code == 0
    _, model_cfg = load_checkpoint(out / "model.ckpt")
    assert model_cfg.d == 6
    assert str(model_cfg.model_kind) == "NAIS"


def test_invalid_beta_rejected_before_training(prepared, tmp_path, capsys):
    code = run_train(prepared, tmp_path / "bad", extra=("--beta", "1.5"))
    assert code == 2
    err = capsys.readouterr().err
    assert "error: category=config" in err
    assert not (tmp_path / "bad").exists()  # nothing was written


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--model", "NAIS", "--beta", ","],
    ["train", "--data_dir", "d", "--out_dir", "o", "--epochs", ",,"],
], ids=["gradcheck-beta", "train-epochs"])
def test_an_empty_sweep_list_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    key = argv[-2].lstrip("-")
    assert f"error: category=usage key {key} lists no value" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # nothing ran


@pytest.mark.parametrize("argv", [
    ["--split", "train", "--checkpoint", "x"],
    ["--split", "test"],
], ids=["split", "checkpoint"])
def test_evaluate_checks_its_flags_before_reading_the_split(argv, tmp_path, capsys):
    code = main(["evaluate", "--data_dir", str(tmp_path / "missing"), *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: category=usage" in err
    assert "user_vocab" not in err  # no file was read


def test_unknown_config_key_rejected(prepared, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("modle=NAIS\n")
    code = main(["train", "--config", str(cfg), "--data_dir", str(prepared),
                 "--out_dir", str(tmp_path / "x")])
    assert code == 2
    assert "error: category=" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_is_a_usage_error(prepared, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"d=4\n# caf\xff\n")
    code = main(["train", "--config", str(cfg), "--data_dir", str(prepared),
                 "--out_dir", str(tmp_path / "x")])
    assert code == 2
    assert f"error: category=usage {cfg}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_flag_parses_under_every_command(command):
    parser = build_parser()
    argv = [command, "--config", "run.cfg"]
    for key in RUN_KEYS:
        argv += [f"--{key}", f"v_{key}"]
    args = parser.parse_args(argv)
    assert args.command == command and args.config == "run.cfg"
    assert {key: getattr(args, key) for key in RUN_KEYS} == {key: f"v_{key}" for key in RUN_KEYS}
    unset = parser.parse_args([command])
    assert unset.config is None and all(getattr(unset, key) is None for key in RUN_KEYS)


def test_main_parses_every_call_with_one_parser(tmp_path, monkeypatch, capsys):
    seen = []
    real_parse = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *args, **kwargs: seen.append(self) or real_parse(self, *args, **kwargs))
    for _ in range(2):
        assert main(["evaluate", "--data_dir", str(tmp_path / "nowhere"), "--baseline", "POP"]) == 3
    assert len(seen) == 2 and seen[0] is seen[1] is build_parser()


def test_missing_data_dir_is_io_error(tmp_path, capsys):
    code = main(["train", "--data_dir", str(tmp_path / "nowhere"),
                 "--out_dir", str(tmp_path / "o"), "--epochs", "1"])
    assert code == 3
    assert "error: category=io" in capsys.readouterr().err


def test_corrupt_checkpoint_is_checkpoint_error(prepared, tmp_path, capsys):
    bad = tmp_path / "junk.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    code = main(["evaluate", "--data_dir", str(prepared), "--checkpoint", str(bad)])
    assert code == 4
    assert "error: category=checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "command,kind",
    [("evaluate", ModelKind.FISM), ("evaluate", ModelKind.NAIS), ("evaluate", ModelKind.FLA_NAIS),
     ("export-attention", ModelKind.FLA_NAIS), ("train", ModelKind.FISM)],
    ids=["evaluate-FISM", "evaluate-NAIS", "evaluate-FLA_NAIS", "export-attention", "train-pretrain"],
)
def test_nonfinite_checkpoint_is_checkpoint_error(prepared, tmp_path, capsys, command, kind, value):
    ckpt = checkpoint_for_vocab(prepared, tmp_path / "m.ckpt", kind)
    params, cfg = load_checkpoint(ckpt)
    params.P[1, 2] = value
    save_checkpoint(params, cfg, ckpt)
    vocab = (prepared / "user_vocab.txt").read_text().split()
    items = (prepared / "item_vocab.txt").read_text().split()
    argv = {
        "evaluate": ["evaluate", "--checkpoint", str(ckpt)],
        "export-attention": ["export-attention", "--checkpoint", str(ckpt),
                             "--user", vocab[0], "--targets", items[0]],
        "train": ["train", "--model", "FLA_NAIS", "--d", "4", "--epochs", "1",
                  "--pretrain", "true", "--pretrain_checkpoint", str(ckpt)],
    }[command]
    out = tmp_path / "out"
    code = main(argv + ["--data_dir", str(prepared), "--out_dir", str(out)])
    assert code == 4
    assert "error: category=checkpoint array P holds a NaN or an infinity" in capsys.readouterr().err
    assert not list(out.glob("*.json")) and not list(out.glob("*.ckpt"))
    assert not list(out.glob("*.csv"))


def test_gradcheck_command(capsys):
    code = main(["gradcheck", "--model", "FLA_NAIS", "--design", "DESIGN1",
                 "--d", "6", "--d_prime", "5", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_export_attention_identities(prepared, tmp_path, capsys):
    vocab = (prepared / "user_vocab.txt").read_text().split()
    items = (prepared / "item_vocab.txt").read_text().split()
    train_lines = (prepared / "train.txt").read_text().strip().splitlines()
    by_user: dict[int, list[int]] = {}
    for line in train_lines:
        u, i = map(int, line.split("\t"))
        by_user.setdefault(u, []).append(i)
    user = next(u for u, its in by_user.items() if len(its) >= 3)
    hist = by_user[user]
    targets = [i for i in range(len(items)) if i not in hist][:2]

    # Design 1: feature rows must sum to the item weights
    out1 = tmp_path / "d1"
    main(["train", "--data_dir", str(prepared), "--out_dir", str(out1),
          "--model", "FLA_NAIS", "--design", "DESIGN1", "--d", "4", "--epochs", "1",
          "--lr", "0.05", "--seed", "2", "--pretrain", "0"])
    att1 = tmp_path / "att1"
    code = main(["export-attention", "--checkpoint", str(out1 / "model.ckpt"),
                 "--data_dir", str(prepared), "--user", vocab[user],
                 "--targets", f"{items[targets[0]]},{items[targets[1]]}",
                 "--out_dir", str(att1)])
    assert code == 0
    stem = f"user{vocab[user]}_item{items[targets[0]]}"
    item_rows = (att1 / f"attention_item_{stem}.csv").read_text().strip().splitlines()
    weights = np.array([float(x) for x in item_rows[1].split(",")])
    feat_lines = (att1 / f"attention_features_{stem}.csv").read_text().strip().splitlines()
    matrix = np.array([[float(x) for x in l.split(",")[1:]] for l in feat_lines[1:]])
    np.testing.assert_allclose(matrix.sum(axis=1), weights, atol=1e-9)

    # Design 2 at beta=1: feature columns sum to 1
    out2 = tmp_path / "d2"
    main(["train", "--data_dir", str(prepared), "--out_dir", str(out2),
          "--model", "FLA_NAIS", "--design", "DESIGN2", "--beta", "1.0", "--d", "4",
          "--epochs", "1", "--lr", "0.05", "--seed", "2", "--pretrain", "0"])
    att2 = tmp_path / "att2"
    main(["export-attention", "--checkpoint", str(out2 / "model.ckpt"),
          "--data_dir", str(prepared), "--user", vocab[user],
          "--targets", f"{items[targets[0]]},{items[targets[1]]}",
          "--out_dir", str(att2)])
    mats = []
    for t in targets:
        lines = (att2 / f"attention_features_user{vocab[user]}_item{items[t]}.csv").read_text().strip().splitlines()
        mats.append(np.array([[float(x) for x in l.split(",")[1:]] for l in lines[1:]]))
    np.testing.assert_allclose(mats[0].sum(axis=0), np.ones(4), atol=1e-9)
    assert not np.allclose(mats[0], mats[1])  # different targets, different weights


def test_export_attention_rejects_fism(prepared, tmp_path, capsys):
    out = tmp_path / "fism"
    main(["train", "--data_dir", str(prepared), "--out_dir", str(out),
          "--model", "FISM", "--d", "4", "--epochs", "1", "--lr", "0.05",
          "--seed", "2", "--pretrain", "0"])
    capsys.readouterr()
    vocab = (prepared / "user_vocab.txt").read_text().split()
    items = (prepared / "item_vocab.txt").read_text().split()
    code = main(["export-attention", "--checkpoint", str(out / "model.ckpt"),
                 "--data_dir", str(prepared), "--user", vocab[0],
                 "--targets", items[0], "--out_dir", str(tmp_path / "att")])
    assert code == 2
    assert "error: category=usage" in capsys.readouterr().err
    assert not (tmp_path / "att").exists()


def checkpoint_for_vocab(prepared, path, kind, extra_items=0, extra_users=0):
    """A fresh checkpoint of kind whose item and user counts differ from the split's."""
    items = len((prepared / "item_vocab.txt").read_text().split()) + extra_items
    users = len((prepared / "user_vocab.txt").read_text().split()) + extra_users
    cfg = ModelConfig(model_kind=kind, d=4)
    save_checkpoint(init_parameters(cfg, items, users, seed=0), cfg, path)
    return path


@pytest.mark.parametrize(
    "kind,extra_items,extra_users",
    [(ModelKind.FISM, -3, 0), (ModelKind.FISM, 3, 0), (ModelKind.DEEPICF, 0, -2),
     (ModelKind.DEEPICF, 0, 2)],
    ids=["fewer-items", "more-items", "deep-fewer-users", "deep-more-users"],
)
def test_evaluate_rejects_a_checkpoint_of_another_vocabulary(
    prepared, tmp_path, capsys, kind, extra_items, extra_users
):
    ckpt = checkpoint_for_vocab(prepared, tmp_path / "m.ckpt", kind, extra_items, extra_users)
    code = main(["evaluate", "--data_dir", str(prepared), "--checkpoint", str(ckpt),
                 "--out_dir", str(tmp_path / "eval")])
    assert code == 4
    assert "error: category=checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_export_attention_rejects_a_checkpoint_of_another_vocabulary(prepared, tmp_path, capsys):
    ckpt = checkpoint_for_vocab(prepared, tmp_path / "m.ckpt", ModelKind.FLA_NAIS, extra_items=3)
    vocab = (prepared / "user_vocab.txt").read_text().split()
    items = (prepared / "item_vocab.txt").read_text().split()
    code = main(["export-attention", "--checkpoint", str(ckpt), "--data_dir", str(prepared),
                 "--user", vocab[0], "--targets", items[0], "--out_dir", str(tmp_path / "att")])
    assert code == 4
    assert "error: category=checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "att").exists()


def test_export_attention_checks_every_target_before_writing(prepared, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_train(prepared, run_dir) == 0
    vocab = (prepared / "user_vocab.txt").read_text().split()
    items = (prepared / "item_vocab.txt").read_text().split()
    capsys.readouterr()
    code = main(["export-attention", "--checkpoint", str(run_dir / "model.ckpt"),
                 "--data_dir", str(prepared), "--user", vocab[0],
                 "--targets", f"{items[0]},no-such-item", "--out_dir", str(tmp_path / "att")])
    assert code == 2
    assert "error: category=usage unknown item id 'no-such-item'" in capsys.readouterr().err
    assert not list(tmp_path.glob("att/*.csv"))


MALFORMED_VALUES = {
    "train-model": ["train", "--model", "FOO"],
    "train-design": ["train", "--design", "D3"],
    "train-attention_mode": ["train", "--attention_mode", "SUM"],
    "gradcheck-model": ["gradcheck", "--model", "FOO"],
    "train-deep_layers": ["train", "--model", "DEEPICF", "--deep_layers", "a,b"],
    "train-pretrain": ["train", "--pretrain", "maybe"],
    "evaluate-baseline": ["evaluate", "--baseline", "FOO"],
    "evaluate-eval_n": ["evaluate", "--baseline", "POP", "--eval_n", "0"],
    "evaluate-knn_k": ["evaluate", "--baseline", "ITEMKNN", "--knn_k", "-3"],
    "evaluate-eval_workers": ["evaluate", "--baseline", "POP", "--eval_workers", "0"],
    "prepare-k_user": ["prepare", "--k_user", "0"],
    "prepare-ratios-sum": ["prepare", "--ratios", "0.5,0.5"],
    "prepare-ratios-text": ["prepare", "--ratios", "a,b,c"],
    "train-seed": ["train", "--seed", "-1"],
    "prepare-seed": ["prepare", "--seed", "-1"],
    "gradcheck-seed": ["gradcheck", "--seed", "-1"],
    "evaluate-seed": ["evaluate", "--baseline", "RANDOM", "--seed", "-1"],
}


@pytest.mark.parametrize("argv", MALFORMED_VALUES.values(), ids=MALFORMED_VALUES.keys())
def test_malformed_values_fail_under_a_named_category(prepared, tmp_path, capsys, argv):
    inputs = {"prepare": ["--raw", str(tmp_path / "raw.dat")], "gradcheck": []}
    out = tmp_path / "out"
    capsys.readouterr()
    argv = [*argv, *inputs.get(argv[0], ["--data_dir", str(prepared)]), "--out_dir", str(out)]
    assert main(argv) == 2
    assert re.match(r"error: category=(usage|config) ", capsys.readouterr().err)
    assert not out.exists()


def test_pretrain_checkpoint_of_another_vocabulary_is_a_checkpoint_error(prepared, tmp_path, capsys):
    ckpt = checkpoint_for_vocab(prepared, tmp_path / "fism.ckpt", ModelKind.FISM, extra_items=-3)
    code = run_train(prepared, tmp_path / "run", [
        "--d", "4", "--pretrain", "true", "--pretrain_checkpoint", str(ckpt)])
    assert code == 4
    assert "error: category=checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_pretrain_checkpoint_of_another_width_is_a_checkpoint_error(prepared, tmp_path, capsys):
    ckpt = checkpoint_for_vocab(prepared, tmp_path / "fism.ckpt", ModelKind.FISM)  # d=4
    code = run_train(prepared, tmp_path / "run", [
        "--pretrain", "true", "--pretrain_checkpoint", str(ckpt)])  # d=6
    assert code == 4
    assert "error: category=checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_missing_pretrain_checkpoint_leaves_no_out_dir(prepared, tmp_path, capsys):
    code = run_train(prepared, tmp_path / "run", [
        "--pretrain", "true", "--pretrain_checkpoint", str(tmp_path / "absent.ckpt")])
    assert code == 3
    assert "error: category=io" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "bad_pair",
    ["-1\t3", "{users}\t3", "0\t-2", "0\t999"],
    ids=["negative-user", "user-past-vocab", "negative-item", "item-past-vocab"],
)
def test_out_of_range_split_ids_are_data_errors(prepared, tmp_path, capsys, bad_pair):
    from flaicf.data import DataFormatError, load_split

    users = len((prepared / "user_vocab.txt").read_text().splitlines())
    train_txt = prepared / "train.txt"
    with open(train_txt, "a", encoding="utf-8") as fh:
        fh.write(bad_pair.format(users=users) + "\n")
    where = f"train.txt:{len(train_txt.read_text().splitlines())}:"
    with pytest.raises(DataFormatError, match=re.escape(where)):
        load_split(prepared)
    assert run_train(prepared, tmp_path / "run") == 3
    err = capsys.readouterr().err
    assert "error: category=data" in err and where in err


@pytest.mark.parametrize("bad_line", ["seed=x", "ratios=a,b,c"], ids=["seed", "ratios"])
def test_malformed_split_meta_is_a_data_error(prepared, tmp_path, capsys, bad_line):
    from flaicf.data import DataFormatError, load_split

    meta = prepared / "split_meta.txt"
    lines = [line for line in meta.read_text().splitlines()
             if line.partition("=")[0] != bad_line.partition("=")[0]]
    meta.write_text("\n".join([*lines, bad_line]) + "\n")
    where = f"split_meta.txt:{len(lines) + 1}:"
    with pytest.raises(DataFormatError, match=re.escape(where)):
        load_split(prepared)
    assert run_train(prepared, tmp_path / "run") == 3
    err = capsys.readouterr().err
    assert "error: category=data" in err and where in err


@pytest.mark.parametrize(
    "flags",
    [["--model", "NAIS"], ["--model", "FLA_NAIS", "--design", "DESIGN2"]],
    ids=["NAIS", "FLA_NAIS-D2"],
)
def test_divergence_stops_at_the_first_bad_instance(prepared, tmp_path, capsys, flags):
    code = main([
        "train", "--data_dir", str(prepared), "--out_dir", str(tmp_path / "run"),
        *flags, "--d", "4", "--epochs", "2", "--lr", "1e300", "--seed", "3",
    ])
    err = capsys.readouterr().err
    assert code == 5
    assert "error: category=diverged" in err
    assert re.search(r"epoch 1 instance \d+ \(user \d+, item \d+\)", err), err
    assert not (tmp_path / "run" / "model.ckpt").exists()


@pytest.mark.parametrize(
    "flags",
    [["--model", "NAIS"], ["--model", "FLA_NAIS", "--design", "DESIGN2"]],
    ids=["NAIS", "FLA_NAIS-D2"],
)
def test_divergence_raises_no_numpy_warning(prepared, tmp_path, capsys, flags):
    # the divergence error is the whole report: numpy's overflow and
    # invalid-value warnings on the way there would only repeat it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([
            "train", "--data_dir", str(prepared), "--out_dir", str(tmp_path / "run"),
            *flags, "--d", "4", "--epochs", "2", "--lr", "1e300", "--seed", "3",
        ])
    err = capsys.readouterr().err
    assert code == 5, err
    assert "error: category=diverged" in err


def prepare_raw(tmp_path, lines, *flags) -> Path:
    raw = tmp_path / "raw.dat"
    raw.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["prepare", "--raw", str(raw), "--out_dir", str(data), "--seed", "5", *flags]) == 0
    return data


@pytest.mark.parametrize("pretrain", ["false", "true"])
def test_a_user_holding_every_item_is_a_data_error(tmp_path, capsys, pretrain):
    # user 0 has all 6 items in the training split, so no negative can be drawn for it
    lines = [f"0::{i}::5::0" for i in range(6)] + ["1::0::5::0", "1::1::5::0"]
    data = prepare_raw(tmp_path, lines, "--ratios", "1,0,0", "--k_user", "1", "--k_item", "1")
    capsys.readouterr()
    assert run_train(data, tmp_path / "run", ["--pretrain", pretrain]) == 3
    err = capsys.readouterr().err
    assert "error: category=data user '0' has a training positive for every one of the 6 items" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("pretrain", ["false", "true"])
def test_an_empty_training_split_is_a_data_error(prepared, tmp_path, capsys, pretrain):
    (prepared / "train.txt").write_text("", encoding="utf-8")
    capsys.readouterr()
    assert run_train(prepared, tmp_path / "run", ["--pretrain", pretrain]) == 3
    assert "error: category=data training split has no positives" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_raw_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    raw = tmp_path / "raw.dat"
    raw.write_bytes(b"0::1::5::0\n0::\xff::5::0\n")
    code = main(["prepare", "--raw", str(raw), "--out_dir", str(tmp_path / "data"),
                 "--k_user", "1", "--k_item", "1"])
    assert code == 3
    assert f"error: category=data {raw}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_vocab_that_is_not_utf8_is_a_data_error(prepared, tmp_path, capsys, command):
    vocab = prepared / "item_vocab.txt"
    vocab.write_bytes(vocab.read_bytes() + b"\xc3\x28\n")
    capsys.readouterr()
    argv = {"train": ["--pretrain", "0"], "evaluate": ["--baseline", "POP"]}[command]
    code = main([command, "--data_dir", str(prepared), "--out_dir", str(tmp_path / "run"), *argv])
    assert code == 3
    assert f"error: category=data {vocab}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_checkpoint_path_that_is_a_directory_is_an_io_error(prepared, tmp_path, capsys):
    capsys.readouterr()
    code = main(["evaluate", "--data_dir", str(prepared), "--checkpoint", str(tmp_path)])
    assert code == 3
    assert "error: category=io" in capsys.readouterr().err
