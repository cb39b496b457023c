"""The reproduction harness: train_and_test, its FISM pretrain and its RunCache."""

from flaicf import repro
from flaicf.data import split_per_user
from tests.conftest import random_dataset


def test_train_and_test_is_the_same_with_any_worker_count_and_reused_from_its_cache(
        tmp_path, monkeypatch):
    split = split_per_user(random_dataset(3, n_users=10, n_items=20, min_items=5), seed=3)
    settings = dict(model="FLA_NAIS", d=4, epochs=2, pretrain=True, verbose=False)
    caches = {workers: repro.RunCache(tmp_path / f"workers{workers}") for workers in (1, 2)}
    runs = {workers: repro.train_and_test(split, cache, "tiny", eval_workers=workers, **settings)
            for workers, cache in caches.items()}
    # wall time is the only field that may differ
    assert {k: v for k, v in runs[1].items() if k != "seconds"} == \
        {k: v for k, v in runs[2].items() if k != "seconds"}
    ckpts = {workers: sorted(cache.root.glob("fism_*.ckpt")) for workers, cache in caches.items()}
    assert len(ckpts[1]) == 1
    assert [p.name for p in ckpts[1]] == [p.name for p in ckpts[2]]
    assert ckpts[1][0].read_bytes() == ckpts[2][0].read_bytes()

    def no_training(*args, **kwargs):
        raise AssertionError("a cached run trained again")

    monkeypatch.setattr(repro, "train", no_training)
    for workers, cache in caches.items():
        assert repro.train_and_test(split, cache, "tiny", eval_workers=workers, **settings) \
            == runs[workers]
