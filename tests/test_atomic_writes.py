"""Artifact writes replace the previous file only once they are complete."""

import numpy as np
import pytest

from flaicf import data
from flaicf.cli import _write_metrics, main
from flaicf.config import ModelConfig, ModelKind
from flaicf.data import load_split, save_split, split_per_user
from flaicf.evaluation import MetricsRecord
from flaicf.params import init_parameters, load_checkpoint, params_equal, save_checkpoint
from flaicf.repro import RunCache
from tests.conftest import random_dataset, random_params


class _FailingFile:
    """A file whose second write raises, after the first one went through."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError("disk full")
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _break_writes(monkeypatch):
    real_open = open
    monkeypatch.setattr(data, "open", lambda *a, **k: _FailingFile(real_open(*a, **k)), raising=False)


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_interrupted_run_cache_put_keeps_previous_entry(tmp_path, monkeypatch):
    cache = RunCache(tmp_path)
    cache.put("t", {"lr": 0.1}, {"test_hr": 0.5})
    before = _snapshot(tmp_path)
    _break_writes(monkeypatch)
    with pytest.raises(OSError):
        cache.put("t", {"lr": 0.1}, {"test_hr": 0.75, "note": "x" * 100})
    assert _snapshot(tmp_path) == before
    assert cache.get("t", {"lr": 0.1})["test_hr"] == 0.5


def test_interrupted_checkpoint_keeps_previous_file(tmp_path, monkeypatch):
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=4)
    first = random_params(cfg, 6, 3, seed=1)
    save_checkpoint(first, cfg, tmp_path / "model.ckpt")
    before = _snapshot(tmp_path)
    _break_writes(monkeypatch)
    with pytest.raises(OSError):
        save_checkpoint(random_params(cfg, 6, 3, seed=2), cfg, tmp_path / "model.ckpt")
    assert _snapshot(tmp_path) == before
    assert params_equal(load_checkpoint(tmp_path / "model.ckpt")[0], first)


def test_interrupted_split_save_keeps_previous_files(tmp_path, monkeypatch):
    ds = random_dataset(3, n_users=10, n_items=14)
    save_split(split_per_user(ds, seed=1), tmp_path)
    before = _snapshot(tmp_path)
    _break_writes(monkeypatch)
    with pytest.raises(OSError):
        save_split(split_per_user(ds, seed=2), tmp_path)
    assert _snapshot(tmp_path) == before
    monkeypatch.undo()
    loaded = load_split(tmp_path)
    expect = split_per_user(ds, seed=1)
    for u in range(ds.user_count):
        np.testing.assert_array_equal(loaded.train.items_by_user[u], expect.train.items_by_user[u])


def test_interrupted_metrics_write_keeps_previous_file(tmp_path, monkeypatch):
    # one record: the one-line log is written whole, metrics.json fails
    first = MetricsRecord(split="valid", hr=0.5, ndcg=0.25, n=10, epoch=1, loss=0.75)
    second = MetricsRecord(split="valid", hr=0.0, ndcg=0.0, n=10, epoch=2, loss=1.5)
    _write_metrics(tmp_path / "metrics", [first])
    before = _snapshot(tmp_path)
    _break_writes(monkeypatch)
    with pytest.raises(OSError):
        _write_metrics(tmp_path / "metrics", [second])
    after = _snapshot(tmp_path)
    assert sorted(after) == sorted(before)
    assert after["metrics.json"] == before["metrics.json"]


def test_interrupted_evaluation_write_keeps_previous_file(tmp_path, monkeypatch):
    ds = random_dataset(3, n_users=10, n_items=14)
    save_split(split_per_user(ds, seed=1), tmp_path / "data")
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=4)
    save_checkpoint(init_parameters(cfg, 14, 10, seed=1), cfg, tmp_path / "model.ckpt")
    out = tmp_path / "eval"

    def evaluate(n):
        return main(["evaluate", "--data_dir", str(tmp_path / "data"), "--split", "test",
                     "--checkpoint", str(tmp_path / "model.ckpt"), "--eval_n", n,
                     "--out_dir", str(out)])

    assert evaluate("10") == 0
    before = _snapshot(out)
    real_open = open

    def open_breaking_writes(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FailingFile(fh) if "w" in mode else fh

    # evaluate reads the split through data's open too
    monkeypatch.setattr(data, "open", open_breaking_writes, raising=False)
    assert evaluate("5") != 0
    assert _snapshot(out) == before
