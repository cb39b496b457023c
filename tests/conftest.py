"""Shared builders for synthetic datasets and small parameter sets."""

import numpy as np
import pytest

from flaicf.config import ModelConfig, ModelKind
from flaicf.data import InteractionDataset, SplitDataset, split_per_user
from flaicf.params import ParameterSet, array_shapes, init_parameters


def make_dataset(items_by_user: dict[int, list[int]], n_items: int) -> InteractionDataset:
    """Build an InteractionDataset from explicit per-user item lists."""
    n_users = max(items_by_user) + 1
    groups = [np.sort(np.asarray(items_by_user.get(u, []), dtype=np.int64))
              for u in range(n_users)]
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum([group.size for group in groups], out=indptr[1:])
    return InteractionDataset(
        user_ids=[f"u{i}" for i in range(n_users)],
        item_ids=[f"i{j}" for j in range(n_items)],
        indptr=indptr,
        items=np.concatenate(groups),
    )


def random_dataset(seed: int, n_users: int = 20, n_items: int = 30,
                   min_items: int = 4, max_items: int = 12) -> InteractionDataset:
    rng = np.random.default_rng(seed)
    max_items = min(max_items, n_items)
    by_user = {}
    for u in range(n_users):
        k = int(rng.integers(min_items, max_items + 1))
        by_user[u] = rng.choice(n_items, size=k, replace=False).tolist()
    return make_dataset(by_user, n_items)


def random_params(config: ModelConfig, item_count: int, user_count: int,
                  seed: int, scale: float = 0.5) -> ParameterSet:
    """O(1)-scale parameters; production init is too small for oracle work."""
    rng = np.random.default_rng(seed)
    params = init_parameters(config, item_count, user_count, seed=seed)
    for name, shape in array_shapes(config, item_count, user_count).items():
        params.get(name)[...] = rng.normal(0.0, scale, size=shape)
    return params


@pytest.fixture
def small_split() -> SplitDataset:
    """20 users x 30 items, every user with enough items for all 3 splits."""
    return split_per_user(random_dataset(5, min_items=5), seed=7)


def write_raw(path, lines: list[str]) -> str:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)
