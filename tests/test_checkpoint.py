"""Checkpoint serialization: bit-exact round-trips and corruption errors."""

import numpy as np
import pytest

from flaicf.config import AttentionMode, Design, ModelConfig, ModelKind
from flaicf.params import (
    CheckpointFormatError,
    CheckpointSizeError,
    CheckpointVersionError,
    array_shapes,
    init_parameters,
    load_checkpoint,
    params_equal,
    save_checkpoint,
)
from tests.conftest import random_params

ALL_CONFIGS = [
    ModelConfig(model_kind=ModelKind.FISM, d=5, alpha=0.25),
    ModelConfig(model_kind=ModelKind.NAIS, d=5, d_prime=3, beta=0.6),
    ModelConfig(model_kind=ModelKind.NAIS, d=5, d_prime=3, attention_mode=AttentionMode.CONCAT),
    ModelConfig(model_kind=ModelKind.FLA_NAIS, d=5, d_prime=3, design=Design.DESIGN1),
    ModelConfig(model_kind=ModelKind.FLA_NAIS, d=5, d_prime=3, design=Design.DESIGN2),
    ModelConfig(model_kind=ModelKind.DEEPICF, d=6, d_prime=4, deep_layers=(6, 3)),
    ModelConfig(model_kind=ModelKind.FLA_DICF, d=6, d_prime=4, design=Design.DESIGN1),
    ModelConfig(model_kind=ModelKind.FLA_DICF, d=6, d_prime=4, design=Design.DESIGN2),
]


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.model_kind}-{c.design}")
def test_round_trip_bit_exact(tmp_path, cfg):
    params = init_parameters(cfg, item_count=13, user_count=4, seed=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, cfg, path)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert params_equal(params, loaded)
    for (name_a, a), (name_b, b) in zip(params.arrays(), loaded.arrays()):
        assert name_a == name_b
        assert a.tobytes() == b.tobytes()  # bitwise, not approx


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.model_kind}-{c.design}")
def test_body_is_every_array_in_canonical_order(tmp_path, cfg):
    # pins the on-disk layout, which a round trip alone would not
    backed = init_parameters(cfg, item_count=13, user_count=4, seed=2)
    backed.flat()[:] = np.random.default_rng(3).normal(size=backed.flat().size)
    for params in (backed, random_params(cfg, 13, 4, seed=4)):
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, path)
        body = path.read_bytes().split(b"\n", 1)[1]
        names = array_shapes(cfg, 13, 4)
        assert body == b"".join(params.get(name).astype("<f8").tobytes() for name in names)


@pytest.mark.parametrize("name,index,value", [("P", (0, 0), np.inf), ("h", (2,), np.nan)],
                         ids=["inf-in-P", "nan-in-h"])
def test_save_keeps_a_nonfinite_payload_that_load_rejects(tmp_path, name, index, value):
    # save does not sanitize, so a diverged run's raw bits stay on disk for
    # diagnosis; load refuses them and names the array
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=3, d_prime=3)
    params = init_parameters(cfg, 5, 2, seed=0)
    params.get(name)[index] = value
    path = tmp_path / "bad.ckpt"
    save_checkpoint(params, cfg, path)
    body = np.frombuffer(path.read_bytes().split(b"\n", 1)[1], dtype="<f8")
    assert body.tobytes() == params.flat().tobytes()
    with pytest.raises(CheckpointFormatError, match=f"array {name} holds a NaN or an infinity"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOTAMODEL v1 whatever\n" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=3)
    params = init_parameters(cfg, 4, 2, seed=0)
    path = tmp_path / "x.ckpt"
    save_checkpoint(params, cfg, path)
    data = path.read_bytes()
    path.write_bytes(data.replace(b" v1 ", b" v9 ", 1))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=3)
    params = init_parameters(cfg, 4, 2, seed=0)
    path = tmp_path / "x.ckpt"
    save_checkpoint(params, cfg, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(CheckpointSizeError):
        load_checkpoint(path)


def test_header_body_disagreement_rejected(tmp_path):
    # header claims d=16 but the payload holds a d=8 model
    big = ModelConfig(model_kind=ModelKind.FISM, d=16)
    small = ModelConfig(model_kind=ModelKind.FISM, d=8)
    small_params = init_parameters(small, 4, 2, seed=0)
    big_path = tmp_path / "big.ckpt"
    save_checkpoint(init_parameters(big, 4, 2, seed=0), big, big_path)
    header = big_path.read_bytes().split(b"\n", 1)[0]
    body = b"".join(np.ascontiguousarray(a, "<f8").tobytes() for _, a in small_params.arrays())
    forged = tmp_path / "forged.ckpt"
    forged.write_bytes(header + b"\n" + body)
    with pytest.raises(CheckpointSizeError):
        load_checkpoint(forged)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.ckpt")
