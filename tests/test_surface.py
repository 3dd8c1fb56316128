"""Names that code and documents outside ``src/`` rely on: the package's
public surface (README "Quick start"), the config keys README's
Configuration table documents, and the hook points of the benchmark in
``perfbench/``, which patches and observes them from outside the program.
"""

import collections
import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

import mdvt
from mdvt import backbone, cli, dataset, triplet_forge
from mdvt.trainer import RunConfig

ROOT = Path(__file__).resolve().parent.parent

# Span names of BENCHMARK.json's per-layer metrics that no function backs:
# ``dataset.prepare`` is computed from the prepare command's children, and
# the other three name functions the program no longer has (they read 0).
UNBACKED_SPANS = {"dataset.prepare", "dataset.sample_negative",
                  "triplet_forge.select_topn", "evaluator.rank_items"}


def test_public_names_are_their_modules_objects():
    assert isinstance(mdvt.__version__, str)
    for name in mdvt.__all__:
        if name == "__version__":
            continue
        obj = getattr(mdvt, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_perfbench_patched_methods_exist():
    # perfbench/run.py wraps these through ``vars(cls)[attr]``.
    assert "__init__" in vars(backbone.Propagator)
    assert "apply" in vars(backbone.Propagator)
    assert "has_edge" in vars(dataset.InteractionGraph)


def test_perfbench_refresh_observer_argument():
    # The coverage observer reads ``trainable_users`` by keyword or as the
    # fourth positional argument.
    params = list(inspect.signature(triplet_forge.refresh).parameters)
    assert params[3] == "trainable_users"


def test_perfbench_cli_entry_points():
    # Called, timed, or the roots of the prepare/train/eval spans.
    for name in ("main", "load_bundle", "cmd_prepare", "cmd_train",
                 "cmd_eval"):
        assert callable(getattr(cli, name))
    assert cli.load_bundle is dataset.load_bundle


def test_per_layer_spans_have_functions():
    """Every ``<module>.<function>`` span a per-layer metric times or
    counts is a public function defined in that module, which is what the
    tracer wraps; a removed one would read 0 instead of failing."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    spans = {m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]
             if m["name"].endswith((".calls", ".s"))}
    checked = 0
    for span in sorted(spans - UNBACKED_SPANS):
        module, _, attr = span.partition(".")
        if "." in attr:  # a method: checked above
            continue
        mod = importlib.import_module(f"mdvt.{module}")
        fn = getattr(mod, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, span
        checked += 1
    assert checked >= 14


def test_readme_configuration_table_names_every_key_once():
    """README's Configuration table gives every RunConfig field one row,
    and names no key that is not a field."""
    readme = (ROOT / "README.md").read_text("utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines()
            if line.startswith("| `")]
    keys = collections.Counter(k for row in rows
                               for k in re.findall(r"`(\w+)`", row))
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(keys) == fields
    assert [k for k, n in keys.items() if n > 1] == []
