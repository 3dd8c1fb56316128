"""Generated inputs for every file loader.

Raw interaction files and bundle split files must load exactly as the
line-by-line oracles do (the same records, ids and duplicate count, or the
same error and message); a split file loads only in the form ``prepare``
writes it. Feature files with sidecars, ``stats.json`` and checkpoint
bytes must load or raise the loader's documented error, never another
exception.
"""

import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import make_bundle, pairs_of, write_raw_features
from mdvt import dataset
from mdvt.dataset import (InteractionSet, load_bundle, load_interactions,
                          load_modality_features, save_bundle)
from mdvt.errors import CheckpointError, DataError, MdvtError
from mdvt.trainer import (RunConfig, load_checkpoint, save_checkpoint,
                          state_from_tables)
from mdvt.backbone import init_embeddings
from oracles import load_interactions_loop, read_split_loop

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
# The oracle comparisons probe a narrow boundary: give them more draws.
ORACLE_FUZZ = settings(FUZZ, max_examples=400)

# Lines of a raw interaction file: canonical ones, a canonical line with
# one defect that must send the file down the line-by-line path (a
# comment, an empty or extra field, odd whitespace, a carriage return),
# and lines built from arbitrary pieces.
IDS = ["a", "b", "c", "u1", "i2", "10", "+3", "é"]
DEFECTS = ["#{u}\t{i}\n", "# {u}\n", "\t{i}\n", "{u}\t\n", "\t\n", "\n",
           "{u}\t{i}\t{i}\n", "{u}\t\t{i}\n", "{u}{i}\n", "{u} {i}\n",
           "{u}\t{i}\r\n", "{u}\t{i}\r", "{u}\t{i} \n", " {u}\t{i}\n",
           "{u}\x0c\t{i}\n", "{u}\t{i}\x1c\n", "{u}\t{i}\xa0\n",
           "{u}\t{i}\x0b{u}\t{i}\n",
           "\u3000{u}\t{i}\n", "{u}\t{i}\x85\n", "{u}\u2028\t{i}\n", "{u}"]
SPACES = ["", " ", "\r", "\x0c", "\x85", "\xa0", "\u2003"]

canonical_line = st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)).map(
    lambda p: f"{p[0]}\t{p[1]}\n")
any_line = st.one_of(
    st.builds(str.format, st.sampled_from(DEFECTS), u=st.sampled_from(IDS),
              i=st.sampled_from(IDS)),
    st.tuples(st.sampled_from(SPACES), st.sampled_from(IDS + ["#", "a b"]),
              st.sampled_from(["\t", " ", ""]), st.sampled_from(IDS + [""]),
              st.sampled_from(SPACES),
              st.sampled_from(["\n", "\r\n", "\r"])).map("".join))


def file_bytes(good_line, odd_line):
    """A file of good lines with up to two odd lines put in, sometimes cut
    short of its last newline or ending in bytes that are not UTF-8."""
    def assemble(parts):
        lines, odd, cut, junk = parts
        for at, line in odd:
            lines.insert(at % (len(lines) + 1), line)
        text = "".join(lines)
        return text[:-1 if cut else None].encode("utf-8") + junk

    return st.tuples(st.lists(good_line, max_size=10),
                     st.lists(st.tuples(st.integers(0, 10), odd_line),
                              max_size=2),
                     st.sampled_from([False, False, False, True]),
                     st.sampled_from([b""] * 5 + [b"\xff", b"\xc3"])
                     ).map(assemble)


def outcome(call):
    """``call()``'s result, or the type and message of the MdvtError it
    raised."""
    try:
        return call()
    except MdvtError as exc:
        return type(exc), str(exc)


def assert_interactions_match_loop(tmp_path, data: bytes) -> None:
    path = tmp_path / "inter.tsv"
    path.write_bytes(data)

    def production():
        got = load_interactions(path)
        return (pairs_of(got), got.user_ids, got.item_ids,
                got.duplicates_dropped, got.num_users, got.num_items)

    def oracle():
        records, users, items, dropped = load_interactions_loop(path)
        return records, users, items, dropped, len(users), len(items)

    assert outcome(production) == outcome(oracle)


class TestInteractionsMatchLoop:
    @ORACLE_FUZZ
    @given(data=file_bytes(canonical_line, any_line))
    def test_matches_loop_oracle(self, tmp_path, data):
        assert_interactions_match_loop(tmp_path, data)

    # One case per condition of the one-pass path, each breaking it once.
    @pytest.mark.parametrize("text", [
        "a\tx\nb\ty\na\tx\n",          # one pass, with a duplicate
        "a\tx\nb",                     # no final newline or tab
        "a\tx\n\ty\n",                 # an empty field
        "a\tx\n\t\n",                  # only a tab
        "a\tx\x0bb\ty\n",              # a control byte between lines
        "a\tx\r\nb\ty\r\n",            # carriage returns
        "#a\tx\nb\ty\n",               # a comment first
        "a\tx\n#b\ty\n",               # a comment later
        "é\tx\né\ty\xa0\n",        # non-ASCII id, a no-break space
    ])
    def test_known_cases(self, tmp_path, text):
        assert_interactions_match_loop(tmp_path, text.encode("utf-8"))


# Split-file lines: canonical ones, one with a defect (as above, or an
# index that ``int`` reads but ``prepare`` never writes, or not at all, or
# beyond int64), and lines built from arbitrary pieces. Every defect but
# a leading zero must fail, naming the same first line as the oracle.
SPLIT_DEFECTS = ["{u}\t{i}\t{i}\n", "{u}{i}\n", "\t{i}\n", "{u}\t\n", "\n",
                 "\t\n", "{u}\t{i}\r\n", " {u}\t{i}\n", "{u}\t{i}\x0c\n",
                 "+{u}\t{i}\n", "-{u}\t{i}\n", "{u}_0\t{i}\n", "0{u}\t{i}\n",
                 "{u}.0\t{i}\n", "{u}e0\t{i}\n", "\u0663\t{i}\n", "x\t{i}\n",
                 f"{2**63 - 1}\t{{i}}\n", f"{2**63}\t{{i}}\n",
                 f"{{u}}\t{-2**63}\n", f"{10**25}\t{{i}}\n", "{u}\t{i}"]
INDICES = st.one_of(st.integers(-2, 9).map(str),
                    st.sampled_from(["+3", "3_0", "007", " 4", "x", ""]))
canonical_split_line = st.tuples(st.integers(0, 5), st.integers(0, 6)).map(
    lambda p: f"{p[0]}\t{p[1]}\n")
split_line = st.one_of(
    st.builds(str.format, st.sampled_from(SPLIT_DEFECTS),
              u=st.integers(0, 7), i=st.integers(0, 7)),
    st.tuples(INDICES, st.sampled_from(["\t", " ", ""]), INDICES,
              st.sampled_from(["\n", "\r\n", "\r"])).map("".join))


class TestSplitFileMatchesLoop:
    NUM_USERS, NUM_ITEMS = 6, 7

    @ORACLE_FUZZ
    @given(data=file_bytes(canonical_split_line, split_line))
    def test_matches_loop_oracle(self, tmp_path, data):
        path = tmp_path / "train.tsv"
        path.write_bytes(data)
        empty = np.zeros(0, dtype=np.int64)
        base = InteractionSet(empty, empty, self.NUM_USERS, self.NUM_ITEMS,
                              (), ())
        got = outcome(lambda: pairs_of(dataset._read_split(path, data, base)))
        assert got == outcome(lambda: read_split_loop(
            path, self.NUM_USERS, self.NUM_ITEMS))
        if isinstance(got, list):  # what _write_tsv writes, but for zeros
            assert re.sub(rb"\b0+(?=[0-9])", b"", data) == "".join(
                f"{u}\t{i}\n" for u, i in got).encode()


FEATURE_IDS = ["x", "y", "z", "w", "", "\xe9"]


class TestFeatureFiles:
    ITEM_INDEX = {"x": 0, "y": 1, "z": 2}

    @FUZZ
    @given(rows=st.integers(0, 4), cols=st.integers(0, 3),
           values=st.lists(st.sampled_from([0.5, -1.0, np.nan, np.inf]),
                           min_size=12, max_size=12),
           cut=st.integers(0, 6), magic=st.booleans(),
           sidecar=st.one_of(st.none(), st.lists(
               st.sampled_from(FEATURE_IDS), max_size=5)),
           junk=st.sampled_from([b"", b"\xff"]))
    def test_result_or_data_error(self, tmp_path, rows, cols, values, cut,
                                  magic, sidecar, junk):
        path = tmp_path / "v.feat"
        mat = np.array(values[:rows * cols], dtype=np.float32)
        write_raw_features(path, mat.reshape(rows, cols))
        blob = path.read_bytes()
        blob = (blob if magic else b"NOTMAGIC" + blob[8:])[:len(blob) - cut]
        path.write_bytes(blob)
        if sidecar is not None:
            (tmp_path / "v.feat.ids").write_bytes(
                "".join(f"{raw}\n" for raw in sidecar).encode("utf-8")
                + junk)
        try:
            got = load_modality_features(path, "v", 3,
                                         item_index=self.ITEM_INDEX)
        except DataError:
            return
        assert got.shape == (3, cols) and cols > 0
        assert got.dtype == np.float32 and np.isfinite(got).all()
        if sidecar is None:
            assert np.array_equal(got, mat.reshape(rows, cols))
        else:
            ids = [raw for raw in sidecar if raw]
            for row, raw in enumerate(ids):
                assert np.array_equal(got[self.ITEM_INDEX[raw]],
                                      mat.reshape(rows, cols)[row])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(
        allow_nan=False) | st.sampled_from(["id", "visual", "x", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "visual", "x"]), inner,
                      max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def saved_bundle(tmp_path_factory):
    """A small bundle on disk with one feature modality, and its state
    for checkpoints."""
    root = tmp_path_factory.mktemp("fuzz") / "bundle"
    bundle = make_bundle(np.random.default_rng(3))
    save_bundle(root, bundle.split, bundle.features)
    return root, bundle


class TestStatsJson:
    @FUZZ
    @given(key=st.sampled_from(["num_users", "num_items", "modalities",
                                "split_seed", None]),
           value=JSON_VALUES | st.lists(st.sampled_from(
               ["id", "visual", "x", 3]), max_size=3), drop=st.booleans())
    def test_result_or_data_error(self, tmp_path, saved_bundle, key, value,
                                  drop):
        root, _ = saved_bundle
        copy = tmp_path / "b"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(root, copy)
        stats = json.loads((root / "stats.json").read_text(encoding="utf-8"))
        if key is None:
            stats = value
        elif drop:
            del stats[key]
        else:
            stats[key] = value
        (copy / "stats.json").write_text(json.dumps(stats), encoding="utf-8")
        try:
            load_bundle(copy)
        except DataError:
            pass


class TestCheckpointBytes:
    @FUZZ
    @given(cut=st.integers(0, 400),
           flips=st.lists(st.tuples(st.sampled_from(["framing", "data",
                                                     "any"]),
                                    st.integers(0, 10**6),
                                    st.integers(1, 255)), max_size=3),
           extra=st.binary(max_size=8))
    def test_result_or_checkpoint_error(self, tmp_path, saved_bundle, cut,
                                        flips, extra):
        # Whatever is accepted fits the bundle, is finite and is exactly
        # what saving the result writes again: every byte was read.
        _, bundle = saved_bundle
        config = RunConfig(embed_dim=4)
        path = tmp_path / "run.ckpt"
        state = init_embeddings(bundle.features, bundle.num_users,
                                bundle.num_items, 4, 0)
        save_checkpoint(path, state, config, "f" * 64)
        blob = bytearray(path.read_bytes())
        # Bytes around each table's name and header, inside its values, or
        # anywhere.
        names = [at for name in (b"user.", b"item.")
                 for at in range(len(blob)) if blob.startswith(name, at)]
        framing = [at + k for at in names for k in range(-4, 20)]
        data = []
        for at in names:
            record = at + int.from_bytes(blob[at - 4:at], "little")
            rows, cols = np.frombuffer(blob, "<u4", 2, record + 8)
            data += range(record + 16, record + 16 + 4 * int(rows * cols))
        places = {"framing": framing, "data": data}
        for where, at, mask in flips:
            if where in places:
                at = places[where][at % len(places[where])]
            blob[at % len(blob)] ^= mask
        path.write_bytes(bytes(blob[:len(blob) - cut]) + extra)
        try:
            run_config, fingerprint, tables = load_checkpoint(path)
            got = state_from_tables(tables, bundle, run_config.embed_dim,
                                    run_config.modality_mask)
        except CheckpointError:
            return
        assert all(np.isfinite(t).all() for t in got.tables.values())
        save_checkpoint(tmp_path / "again.ckpt", got, run_config,
                        fingerprint)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
