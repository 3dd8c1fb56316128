"""Benchmark workloads and their seeded planted-group input generator.

Users and items belong to latent groups; every interaction stays inside
the user's group and each feature row is its group's centroid plus noise.
The generator writes what a user of ``mdvt prepare`` starts from: a raw
``user<TAB>item`` file in shuffled line order and, per modality, a binary
``.feat`` file whose rows follow an ``.ids`` sidecar in shuffled order.
It writes the feature format itself so that the inputs never depend on
the program under test.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"MDVTFEAT"


@dataclass(frozen=True)
class Workload:
    """One benchmark input set plus the run config it is trained with."""

    name: str
    why: str
    num_users: int
    num_items: int
    num_groups: int
    # Inclusive range of interactions drawn per user.
    per_user: tuple[int, int]
    # (modality name, feature width, noise scale) per feature file.
    modalities: tuple[tuple[str, int, float], ...]
    # RunConfig keys; the benchmark seed is added as "seed".
    config: dict = field(default_factory=dict)
    # Independent input sets per run; test_ndcg10 is their mean.
    replicas: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="search-small",
            why=("hybrid warm-up search on six 200x100 input sets: "
                 "per-epoch Python overhead and repeated warm-up prefixes "
                 "dominate (trunk-sharing target)"),
            num_users=200, num_items=100, num_groups=4, per_user=(7, 7),
            modalities=(("visual", 16, 0.4),),
            # The hybrid config of acceptance criterion 7, except that every
            # candidate trains a fixed 20 epochs (patience = max_epochs) and
            # g is 0.2. With early stopping the epoch count, and so train_s,
            # swung 2.6x between seeds; with g 0.1 the dynamic probe of some
            # input sets never fired within 20 epochs, which leaves one
            # candidate instead of five.
            config={"embed_dim": 16, "num_layers": 1, "lam": 0.2,
                    "top_n": 2, "batch_size": 256, "learning_rate": 0.02,
                    "max_epochs": 20, "patience": 20, "strategy": "hybrid",
                    "g": 0.2, "s": 2},
            # About 140 users are evaluated per input set, so one set's test
            # NDCG@10 moved 20% (IQR) between seeds; six sets average it.
            replicas=6,
        ),
        Workload(
            name="joint-mid",
            why=("virtual loss from epoch 0 on two 4000x2000 input sets, "
                 "~40k train edges, two feature modalities: refresh and the "
                 "per-user virtual backward dominate; one candidate"),
            num_users=4000, num_items=2000, num_groups=100, per_user=(10, 15),
            modalities=(("visual", 32, 0.5), ("text", 48, 0.8)),
            config={"embed_dim": 64, "lam": 0.2, "top_n": 2,
                    "learning_rate": 0.01, "strategy": "static",
                    "static_set": [0], "max_epochs": 1, "patience": 1},
            # One set's one-epoch test NDCG@10 moved 8% (IQR over 10 seeds)
            # between seeds; two sets average it.
            replicas=2,
        ),
        Workload(
            name="bpr-wide",
            why=("BPR baseline (mdvt off) on 3000x1500, ~120k train edges: "
                 "full-graph propagation, dense Adam and negative sampling "
                 "dominate; refresh and search never run"),
            num_users=3000, num_items=1500, num_groups=8, per_user=(45, 55),
            modalities=(("visual", 32, 0.5),),
            config={"embed_dim": 64, "mdvt_enabled": False,
                    "learning_rate": 0.01, "max_epochs": 1, "patience": 1},
        ),
    )
}


@dataclass(frozen=True)
class RawInputs:
    """Paths of one generated input set."""

    interactions: Path
    features: tuple[tuple[str, Path], ...]


def _write_features(path: Path, matrix: np.ndarray, raw_ids: list[str]
                    ) -> None:
    mat = np.ascontiguousarray(matrix, dtype="<f4")
    path.write_bytes(FEATURE_MAGIC + struct.pack("<II", *mat.shape)
                     + mat.tobytes())
    Path(f"{path}.ids").write_text("".join(f"{r}\n" for r in raw_ids),
                                   encoding="utf-8")


def generate(workload: Workload, seed: int, replica: int, out_dir: Path
             ) -> RawInputs:
    """Write the raw inputs of ``workload`` for ``(seed, replica)`` into
    ``out_dir``.

    Group sizes need not divide evenly: item k of a seeded permutation
    joins group k mod num_groups, so groups differ by at most one item.
    """
    w = workload
    rng = np.random.default_rng([seed, replica])
    item_group = rng.permutation(w.num_items) % w.num_groups
    user_group = rng.permutation(w.num_users) % w.num_groups
    members = [np.flatnonzero(item_group == g) for g in range(w.num_groups)]
    lo, hi = w.per_user
    smallest = min(len(m) for m in members)
    if not 1 <= lo <= hi <= smallest:
        raise ValueError(f"{w.name}: per_user {w.per_user} does not fit "
                         f"groups of {smallest} items")
    counts = rng.integers(lo, hi + 1, size=w.num_users)
    picks = [rng.choice(members[user_group[u]], size=counts[u], replace=False)
             for u in range(w.num_users)]
    lines = [f"u{u}\ti{i}\n" for u in range(w.num_users) for i in picks[u]]
    order = rng.permutation(len(lines))

    out_dir.mkdir(parents=True, exist_ok=True)
    interactions = out_dir / "interactions.tsv"
    interactions.write_text("".join(lines[k] for k in order),
                            encoding="utf-8")

    # Only items that occur in the interactions may appear in a sidecar.
    used = np.unique(np.concatenate(picks))
    features = []
    for name, dim, noise in w.modalities:
        centroids = rng.normal(size=(w.num_groups, dim))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        rows = (centroids[item_group[used]]
                + noise * rng.normal(size=(len(used), dim)))
        row_order = rng.permutation(len(used))
        path = out_dir / f"{name}.feat"
        _write_features(path, rows[row_order],
                        [f"i{i}" for i in used[row_order]])
        features.append((name, path))
    return RawInputs(interactions, tuple(features))
