"""Planted-group synthetic dataset for the end-to-end directional check.

Users and items belong to latent groups; every interaction stays within
the user's group, and the item feature vectors are the group centroid
plus noise. Train/val/test are built per user (3/1/1 within-group items),
so the test signal is exactly the planted structure.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from conftest import make_set
from mdvt.dataset import (DatasetBundle, DatasetSplit, _bundle_stats,
                          build_graph)


def planted_bundle(seed: int, num_users: int = 200, num_items: int = 100,
                   num_groups: int = 4, train_per_user: int = 3,
                   val_per_user: int = 2, test_per_user: int = 2,
                   feature_dim: int = 16, noise: float = 0.4
                   ) -> DatasetBundle:
    rng = np.random.default_rng(seed)
    items_per_group = num_items // num_groups
    item_group = np.repeat(np.arange(num_groups), items_per_group)
    centroids = rng.normal(size=(num_groups, feature_dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    features = {"visual": (
        centroids[item_group]
        + noise * rng.normal(size=(num_items, feature_dim))
    ).astype(np.float32)}

    user_group = np.arange(num_users) % num_groups
    train, val, test = [], [], []
    per_user = train_per_user + val_per_user + test_per_user
    for u in range(num_users):
        group_items = np.flatnonzero(item_group == user_group[u])
        picks = rng.choice(group_items, size=per_user, replace=False)
        for i in picks[:train_per_user]:
            train.append((u, int(i)))
        for i in picks[train_per_user:train_per_user + val_per_user]:
            val.append((u, int(i)))
        for i in picks[train_per_user + val_per_user:]:
            test.append((u, int(i)))

    split = DatasetSplit(train=make_set(train, num_users, num_items),
                         validation=make_set(val, num_users, num_items),
                         test=make_set(test, num_users, num_items),
                         split_seed=seed)
    return DatasetBundle(split=split, graph=build_graph(split.train),
                         features=features,
                         stats=_bundle_stats(split, features, 0))


def bundle_with(modalities: int) -> DatasetBundle:
    """A small planted bundle with ``modalities`` tables: id, visual (and
    text)."""
    bundle = planted_bundle(1, num_users=60, num_items=40, feature_dim=8)
    features = dict(bundle.features)
    if modalities == 3:
        features["text"] = np.ascontiguousarray(
            features["visual"][:, ::-1] * 0.5)
    return dataclasses.replace(
        bundle, features=features,
        stats=_bundle_stats(bundle.split, features, 0), propagators={})
