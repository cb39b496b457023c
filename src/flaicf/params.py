"""Model parameters: shapes, deterministic initialization, checkpoint files.

Checkpoint layout (external format, version 1): a single text header line

    FLAICF v1 <model_kind> d=<d> dp=<d_prime> beta=<beta> items=<n> users=<m>
        design=<design> mode=<mode> alpha=<alpha> [layers=<l1,l2,...>]

(all on one line) followed by the raw bytes of every array in canonical
order, each float64 little-endian row-major. The canonical order is
P, Q, W, b, H, h, deep_W.0, deep_b.0, deep_W.1, deep_b.1, ..., V,
b_user, b_item, restricted to the arrays the model kind uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (
    AttentionMode,
    Design,
    DEEP_KINDS,
    FLA_KINDS,
    ModelConfig,
    ModelKind,
)
from .data import atomic_open

INIT_STD = 0.01
CHECKPOINT_MAGIC = "FLAICF"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Base class for checkpoint read failures."""


class CheckpointFormatError(CheckpointError):
    """The header is not a recognizable checkpoint header."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint declares a version this code does not read."""


class CheckpointSizeError(CheckpointError):
    """Header-declared shapes disagree with the body byte count."""


def array_shapes(config: ModelConfig, item_count: int, user_count: int) -> dict[str, tuple[int, ...]]:
    """Canonically ordered array names and shapes for a model kind."""
    kind = config.model_kind
    d, dp = config.d, config.d_prime
    shapes: dict[str, tuple[int, ...]] = {
        "P": (item_count, d),
        "Q": (item_count, d),
    }
    if kind is not ModelKind.FISM:
        in_dim = 2 * d if (kind is ModelKind.NAIS and config.attention_mode is AttentionMode.CONCAT) else d
        shapes["W"] = (dp, in_dim)
        shapes["b"] = (dp,)
        if kind in FLA_KINDS:
            shapes["H"] = (dp, d)
            if config.design is Design.DESIGN1:
                shapes["h"] = (dp,)
        else:
            shapes["h"] = (dp,)
    if kind in DEEP_KINDS:
        prev = d
        for l, size in enumerate(config.deep_layers):
            shapes[f"deep_W.{l}"] = (size, prev)
            shapes[f"deep_b.{l}"] = (size,)
            prev = size
        shapes["V"] = (prev,)
        shapes["b_user"] = (user_count,)
        shapes["b_item"] = (item_count,)
    return shapes


def _is_bias(name: str) -> bool:
    return name == "b" or name.startswith("deep_b") or name in ("b_user", "b_item")


@dataclass
class ParameterSet:
    """All trainable arrays of one model, plus the user count for bookkeeping."""

    n_users: int
    P: np.ndarray | None = None
    Q: np.ndarray | None = None
    W: np.ndarray | None = None
    b: np.ndarray | None = None
    H: np.ndarray | None = None
    h: np.ndarray | None = None
    deep_W: list[np.ndarray] = field(default_factory=list)
    deep_b: list[np.ndarray] = field(default_factory=list)
    V: np.ndarray | None = None
    b_user: np.ndarray | None = None
    b_item: np.ndarray | None = None

    @property
    def n_items(self) -> int:
        return self.P.shape[0]

    def arrays(self):
        """Yield (name, array) pairs in canonical checkpoint order."""
        for name in ("P", "Q", "W", "b", "H", "h"):
            arr = getattr(self, name)
            if arr is not None:
                yield name, arr
        for l, (wl, bl) in enumerate(zip(self.deep_W, self.deep_b)):
            yield f"deep_W.{l}", wl
            yield f"deep_b.{l}", bl
        for name in ("V", "b_user", "b_item"):
            arr = getattr(self, name)
            if arr is not None:
                yield name, arr

    def get(self, name: str) -> np.ndarray:
        if name.startswith("deep_W."):
            return self.deep_W[int(name.split(".")[1])]
        if name.startswith("deep_b."):
            return self.deep_b[int(name.split(".")[1])]
        arr = getattr(self, name)
        if arr is None:
            raise KeyError(name)
        return arr

    def copy(self) -> "ParameterSet":
        out = ParameterSet(n_users=self.n_users)
        for name, arr in self.arrays():
            _assign(out, name, arr.copy())
        return out

    def sum_squares(self) -> float:
        return float(sum(np.sum(a * a) for _, a in self.arrays()))

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for _, a in self.arrays())


def _assign(params: ParameterSet, name: str, arr: np.ndarray) -> None:
    if name.startswith("deep_W.") or name.startswith("deep_b."):
        lst = params.deep_W if name.startswith("deep_W.") else params.deep_b
        idx = int(name.split(".")[1])
        while len(lst) <= idx:
            lst.append(None)
        lst[idx] = arr
    else:
        setattr(params, name, arr)


def params_equal(a: ParameterSet, b: ParameterSet) -> bool:
    names_a = [n for n, _ in a.arrays()]
    names_b = [n for n, _ in b.arrays()]
    if names_a != names_b or a.n_users != b.n_users:
        return False
    return all(np.array_equal(a.get(n), b.get(n)) for n in names_a)


def init_parameters(
    config: ModelConfig,
    item_count: int,
    user_count: int,
    seed: int,
    pretrained: tuple[np.ndarray, np.ndarray] | None = None,
) -> ParameterSet:
    """Draw a fresh ParameterSet for the given architecture.

    Weights are i.i.d. Gaussian with mean 0 and std 0.01, biases start at
    zero. When pretrained (P, Q) embeddings are supplied they replace the
    random draws; the draws still happen, so the remaining arrays are
    identical with or without pretraining for a fixed seed.
    """
    if item_count < 1 or user_count < 1:
        raise ValueError(f"need at least one item and one user, got {item_count}, {user_count}")
    rng = np.random.default_rng(seed)
    params = ParameterSet(n_users=user_count)
    for name, shape in array_shapes(config, item_count, user_count).items():
        if _is_bias(name):
            arr = np.zeros(shape)
        else:
            arr = rng.normal(0.0, INIT_STD, size=shape)
        _assign(params, name, arr)
    if pretrained is not None:
        p, q = pretrained
        expected = (item_count, config.d)
        if p.shape != expected or q.shape != expected:
            raise ValueError(
                f"pretrained embeddings shaped {p.shape} and {q.shape}, expected {expected}"
            )
        params.P = np.array(p, dtype=np.float64, copy=True)
        params.Q = np.array(q, dtype=np.float64, copy=True)
    return params


def _format_header(config: ModelConfig, item_count: int, user_count: int) -> str:
    parts = [
        CHECKPOINT_MAGIC,
        f"v{CHECKPOINT_VERSION}",
        config.model_kind.value,
        f"d={config.d}",
        f"dp={config.d_prime}",
        f"beta={config.beta!r}",
        f"items={item_count}",
        f"users={user_count}",
        f"design={config.design.value}",
        f"mode={config.attention_mode.value}",
        f"alpha={config.alpha!r}",
    ]
    if config.deep_layers is not None:
        parts.append("layers=" + ",".join(str(x) for x in config.deep_layers))
    return " ".join(parts) + "\n"


def save_checkpoint(params: ParameterSet, config: ModelConfig, path) -> None:
    """Write params to path in the version-1 checkpoint format."""
    expected = array_shapes(config, params.n_items, params.n_users)
    with atomic_open(path, "wb") as fh:
        fh.write(_format_header(config, params.n_items, params.n_users).encode("ascii"))
        for name, shape in expected.items():
            arr = params.get(name)
            if arr.shape != shape:
                raise ValueError(f"array {name} shaped {arr.shape}, config expects {shape}")
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ParameterSet, ModelConfig]:
    """Read a version-1 checkpoint, returning its parameters and config."""
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.find(b"\n")
    if newline < 0:
        raise CheckpointFormatError("no header line found")
    try:
        header = blob[:newline].decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError("header is not ascii text") from exc
    tokens = header.split()
    if len(tokens) < 3 or tokens[0] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic in header: {header[:40]!r}")
    if tokens[1] != f"v{CHECKPOINT_VERSION}":
        raise CheckpointVersionError(f"unsupported checkpoint version {tokens[1]!r}")
    fields = {}
    for tok in tokens[3:]:
        if "=" not in tok:
            raise CheckpointFormatError(f"malformed header token {tok!r}")
        key, value = tok.split("=", 1)
        fields[key] = value
    try:
        config = ModelConfig(
            model_kind=ModelKind(tokens[2]),
            design=Design(fields["design"]),
            attention_mode=AttentionMode(fields["mode"]),
            d=int(fields["d"]),
            d_prime=int(fields["dp"]),
            beta=float(fields["beta"]),
            alpha=float(fields["alpha"]),
            deep_layers=tuple(int(x) for x in fields["layers"].split(",")) if "layers" in fields else None,
        )
        item_count = int(fields["items"])
        user_count = int(fields["users"])
    except (KeyError, ValueError) as exc:
        raise CheckpointFormatError(f"invalid header {header!r}: {exc}") from exc
    shapes = array_shapes(config, item_count, user_count)
    body = blob[newline + 1 :]
    expected_bytes = sum(int(np.prod(s)) * 8 for s in shapes.values())
    if len(body) != expected_bytes:
        raise CheckpointSizeError(
            f"body holds {len(body)} bytes, header shapes require {expected_bytes}"
        )
    params = ParameterSet(n_users=user_count)
    offset = 0
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        chunk = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        _assign(params, name, chunk.astype(np.float64).reshape(shape).copy())
        offset += count * 8
    return params, config
