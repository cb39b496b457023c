"""Model parameters: shapes, deterministic initialization, checkpoint files.

Every array of a model lives in one float64 buffer, in canonical order:
P, Q, W, b, H, h, deep_W.0, deep_b.0, deep_W.1, deep_b.1, ..., V,
b_user, b_item, restricted to the arrays the model kind uses. A
ParameterSet is that buffer: its arrays are views into it, set once when
the set is built, and are assigned into, never rebound. In that order
the buffer falls into three segments, which the optimizer updates with
one expression each: PQ, the (2n x d) row table of P then Q; SHARED,
every array from W to V as one vector; and BIAS, b_user then b_item
(deep kinds only). The Adagrad accumulators and backward's gradients
share this layout: each is a ParameterSet.zeros_like() of the parameters,
and only this module splits a buffer into arrays and segments.

Checkpoint layout (external format, version 1): a single text header line

    FLAICF v1 <model_kind> d=<d> dp=<d_prime> beta=<beta> items=<n> users=<m>
        design=<design> mode=<mode> alpha=<alpha> [layers=<l1,l2,...>]

(all on one line) followed by that buffer, float64 little-endian: the
raw bytes of every array in canonical order, each row-major.
"""

from __future__ import annotations

import math

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
    """The header is not a recognizable checkpoint header, or the body holds a NaN or an infinity."""


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


# the buffer's update segments; see the module docstring
PQ = "P+Q"
SHARED = "shared"
BIAS = "b_user+b_item"


def _is_bias(name: str) -> bool:
    return name == "b" or name.startswith("deep_b") or name in ("b_user", "b_item")


class ParameterSet:
    """All trainable arrays of one model, as views into one buffer.

    shapes names the arrays in canonical order. The arrays, and n_users,
    are attributes set once when the set is built; deep_W and deep_b are
    tuples, one entry per tower layer. Rebinding any of them raises
    AttributeError: write into the arrays instead (params.P[...] = x).
    """

    def __init__(self, buffer: np.ndarray, shapes: dict[str, tuple[int, ...]], n_users: int):
        views, offset = {}, 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            views[name] = buffer[offset : offset + size].reshape(shape)
            offset += size
        if "P" in shapes:
            n, d = shapes["P"]
            views[PQ] = buffer[: 2 * n * d].reshape(2 * n, d)
            stop = offset - (shapes["b_user"][0] + shapes["b_item"][0] if "b_user" in shapes else 0)
            views[SHARED] = buffer[2 * n * d : stop]
            if "b_user" in shapes:
                views[BIAS] = buffer[stop:offset]
        self.__dict__.update(
            {name: views.get(name) for name in ("P", "Q", "W", "b", "H", "h", "V", "b_user", "b_item")},
            deep_W=tuple(views[name] for name in shapes if name.startswith("deep_W.")),
            deep_b=tuple(views[name] for name in shapes if name.startswith("deep_b.")),
            n_users=n_users,
            _buffer=buffer,
            _shapes=dict(shapes),
            _views=views,
        )

    @classmethod
    def from_arrays(cls, n_users: int, **arrays: np.ndarray) -> "ParameterSet":
        """A set holding copies of the named arrays, given in canonical order, in a fresh buffer."""
        buffer = np.concatenate([np.ravel(arr) for arr in arrays.values()], dtype=float)
        return cls(buffer, {name: np.shape(arr) for name, arr in arrays.items()}, n_users)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot rebind ParameterSet.{name}; assign into its arrays instead")

    def flat(self) -> np.ndarray:
        """The buffer: every array in canonical order as one vector."""
        return self._buffer

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return dict(self._shapes)

    @property
    def n_items(self) -> int:
        return self.P.shape[0]

    def arrays(self):
        """Yield (name, array) pairs in canonical checkpoint order."""
        for name in self._shapes:
            yield name, self._views[name]

    def get(self, name: str) -> np.ndarray:
        """An array by name, or a segment of the buffer (PQ, SHARED, BIAS)."""
        return self._views[name]

    def copy(self) -> "ParameterSet":
        return ParameterSet(self._buffer.copy(), self._shapes, self.n_users)

    def zeros_like(self) -> "ParameterSet":
        """A set of the same shapes and n_users on a zero buffer."""
        return ParameterSet(np.zeros_like(self._buffer), self._shapes, self.n_users)

    def sum_squares(self) -> float:
        # per array, so the reported loss keeps its summation order
        return float(sum(np.sum(a * a) for _, a in self.arrays()))

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat()).all())


def params_equal(a: ParameterSet, b: ParameterSet) -> bool:
    return (
        a.n_users == b.n_users
        and list(a.shapes().items()) == list(b.shapes().items())
        and np.array_equal(a.flat(), b.flat())
    )


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
    shapes = array_shapes(config, item_count, user_count)
    size = sum(math.prod(shape) for shape in shapes.values())
    params = ParameterSet(np.zeros(size), shapes, user_count)
    for name, shape in shapes.items():
        if not _is_bias(name):
            params.get(name)[...] = rng.normal(0.0, INIT_STD, size=shape)
    if pretrained is not None:
        p, q = pretrained
        expected = (item_count, config.d)
        if p.shape != expected or q.shape != expected:
            raise ValueError(
                f"pretrained embeddings shaped {p.shape} and {q.shape}, expected {expected}"
            )
        params.P[...] = p
        params.Q[...] = q
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
    shapes = params.shapes()
    if shapes != expected:
        raise ValueError(f"arrays shaped {shapes}, config expects {expected}")
    with atomic_open(path, "wb") as fh:
        fh.write(_format_header(config, params.n_items, params.n_users).encode("ascii"))
        fh.write(np.ascontiguousarray(params.flat(), dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ParameterSet, ModelConfig]:
    """Read a version-1 checkpoint, returning its parameters and config.

    A body holding a NaN or an infinity is a CheckpointFormatError naming
    the first such array.
    """
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
    params = ParameterSet(np.frombuffer(body, dtype="<f8").astype(np.float64), shapes, user_count)
    if not params.all_finite():
        bad = next(name for name, arr in params.arrays() if not np.isfinite(arr).all())
        raise CheckpointFormatError(f"array {bad} holds a NaN or an infinity")
    return params, config
