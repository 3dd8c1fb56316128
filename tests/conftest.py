"""Shared builders for in-memory datasets and tiny training bundles."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from mdvt.dataset import (DatasetBundle, DatasetSplit, InteractionSet,
                          _bundle_stats, build_graph, pack_matrix)


def make_set(records, num_users, num_items) -> InteractionSet:
    """A set of ``(user, item)`` pairs with ids ``u<k>``/``i<k>``."""
    users, items = np.array(records, dtype=np.int64).reshape(-1, 2).T
    return InteractionSet(
        users=users.copy(),
        items=items.copy(),
        num_users=num_users,
        num_items=num_items,
        user_ids=tuple(f"u{k}" for k in range(num_users)),
        item_ids=tuple(f"i{k}" for k in range(num_items)),
    )


def write_raw_features(path, matrix, item_ids=None) -> None:
    """A raw feature file as ``prepare`` reads it: one matrix record, and
    with ``item_ids`` a sidecar ``<path>.ids`` naming each row's raw item
    id, one per line."""
    Path(path).write_bytes(pack_matrix(matrix))
    if item_ids is not None:
        Path(f"{path}.ids").write_bytes(
            "".join(f"{raw}\n" for raw in item_ids).encode("utf-8"))


def pairs_of(part: InteractionSet) -> list[tuple[int, int]]:
    """A set's records as ``(user, item)`` tuples, in record order."""
    return list(zip(part.users.tolist(), part.items.tolist()))


def covered_random_records(rng, num_users, num_items, extra_edges):
    """Random edge set where every user and every item has >= 1 edge."""
    pairs = set()
    for u in range(num_users):
        pairs.add((u, int(rng.integers(num_items))))
    for i in range(num_items):
        pairs.add((int(rng.integers(num_users)), i))
    for _ in range(extra_edges):
        pairs.add((int(rng.integers(num_users)), int(rng.integers(num_items))))
    return sorted(pairs)


def make_bundle(rng, num_users=6, num_items=8, extra_edges=6,
                feature_dim=3, with_features=True,
                val_records=None, test_records=None) -> DatasetBundle:
    """A tiny in-memory bundle with a fully covered train graph."""
    train_records = covered_random_records(rng, num_users, num_items,
                                           extra_edges)
    train = make_set(train_records, num_users, num_items)
    seen = train.adjacency
    if val_records is None:
        val_records = []
        for u in range(num_users):
            free = np.setdiff1d(np.arange(num_items), seen[u])
            if len(free):
                val_records.append(
                    (u, int(free[int(rng.integers(len(free)))])))
    if test_records is None:
        test_records = []
        taken = {(u, i) for u, i in val_records}
        for u in range(num_users):
            free = [i for i in np.setdiff1d(np.arange(num_items), seen[u])
                    if (u, i) not in taken]
            if free:
                test_records.append(
                    (u, int(free[int(rng.integers(len(free)))])))
    split = DatasetSplit(
        train=train,
        validation=make_set(val_records, num_users, num_items),
        test=make_set(test_records, num_users, num_items),
        split_seed=0,
    )
    features = {}
    if with_features:
        features["visual"] = rng.normal(size=(num_items, feature_dim)) \
            .astype(np.float32)
    return DatasetBundle(split=split, graph=build_graph(train),
                         features=features,
                         stats=_bundle_stats(split, features, 0))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child of this process unreaped, running
    or exited: a search must wait for every candidate process it starts."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")
