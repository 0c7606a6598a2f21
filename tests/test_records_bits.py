"""The record path's streams and lines bit for bit against their former code.

``TaskRecords.rng`` hands SeedSequence the digest's uint32 words as an
array instead of a list, and ``cli._dump_line`` reuses one C encoder
instead of building one per line. Neither may change a draw or a byte:
every result here is compared with ``oracles.reference_rng`` and
``oracles._reference_dump_line`` (``json.dumps``).
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _reference_dump_line, reference_rng
from sceneqa import cli
from sceneqa.qa_records import TASKS, GenConfig, TaskRecords

# --- TaskRecords.rng ------------------------------------------------------------------

_NAME = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)  # UTF-8 encodable
_PART = st.one_of(st.integers(-10**12, 10**12), _NAME)


def first_draws(rng) -> tuple:
    return (rng.random().hex(), rng.choice(40, size=6, replace=False).tolist(),
            rng.permutation(9).tolist(), rng.integers(0, 2**63, size=2).tolist())


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(-2**63, 2**64), scene_id=_NAME, task=st.sampled_from(TASKS),
       parts=st.lists(_PART, max_size=3))
def test_rng_stream_matches_the_former_list_seeding(seed, scene_id, task, parts):
    got = TaskRecords(scene_id, task, GenConfig(seed=seed)).rng(*parts)
    assert first_draws(got) == first_draws(reference_rng(seed, scene_id, task, *parts))


def seed_states(words) -> tuple:
    words = np.asarray(words, dtype="<u4")
    return tuple(np.random.SeedSequence(w).generate_state(4, np.uint64).tolist()
                 for w in (words, words.tolist()))


@pytest.mark.parametrize("words", [
    [0] * 8,
    [0] * 7 + [1],
    [1] + [0] * 7,  # trailing zero words
    [7, 0, 0, 9, 0, 0, 0, 0],
    [0, 2**32 - 1, 0, 0, 0, 0, 0, 0],
    [2**32 - 1] * 8,
    [0] * 4 + [2**31] + [0] * 3,
], ids=["all_zero", "leading_zeros", "trailing_zeros", "inner_zeros", "one_max_word",
        "all_max", "high_bit"])
def test_seed_sequence_takes_words_as_array_or_list(words):
    from_array, from_list = seed_states(words)
    assert from_array == from_list


def test_seed_sequence_array_and_list_agree_on_20000_digests():
    rng = np.random.default_rng(20)
    words = rng.integers(0, 2**32, size=(20_000, 8), dtype=np.uint32)
    words[::3, 5:] = 0  # a third end in zero words
    words[1::7, :2] = 0
    for row in words:
        from_array, from_list = seed_states(row)
        assert from_array == from_list


# --- cli._dump_line --------------------------------------------------------------------

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10) | st.sampled_from(
    ['"quoted"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", "café ü", "  ",
     "\U0001f600", ""])
_FLOAT = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e16, 5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.5e-7, math.inf, -math.inf, math.nan])
_SCALAR = st.none() | st.booleans() | st.integers(-2**70, 2**70) | _FLOAT | _TEXT
_VALUE = st.recursive(_SCALAR, lambda kids: st.lists(kids, max_size=4)
                      | st.dictionaries(_TEXT, kids, max_size=4), max_leaves=12)
_RECORD = st.fixed_dictionaries(
    {"qid": _TEXT, "scene_id": _TEXT, "task": st.sampled_from(TASKS),
     "answer_type": st.sampled_from(["NA", "MCA"]), "question": _TEXT, "ground_truth": _TEXT,
     "frame_refs": st.lists(st.integers(0, 10**6), max_size=5),
     "meta": st.dictionaries(_TEXT, _VALUE, max_size=5)},
    optional={"options": st.lists(_TEXT, max_size=4)})


@settings(max_examples=300, deadline=None, database=None)
@given(doc=_RECORD)
def test_dump_line_matches_json_dumps(doc):
    assert cli._dump_line(doc) == _reference_dump_line(doc)


@settings(max_examples=50, deadline=None, database=None)
@given(doc=_RECORD)
def test_dump_line_without_a_c_encoder_matches_json_dumps(doc):
    saved, cli._c_encode = cli._c_encode, None
    try:
        assert cli._dump_line(doc) == _reference_dump_line(doc)
    finally:
        cli._c_encode = saved


def _eight_argument_encoder(markers, default, encoder, indent, key_separator,
                            item_separator, sort_keys, skipkeys):
    raise AssertionError("unreachable: the caller passes nine arguments")


@pytest.mark.parametrize("make_encoder", [None, _eight_argument_encoder],
                         ids=["absent", "another_signature"])
def test_cli_imports_without_a_usable_c_encoder(monkeypatch, make_encoder):
    """A C encoder that is missing or that rejects the nine arguments leaves
    _dump_line on JSONEncoder.encode, with the same bytes."""
    saved = json.encoder.c_make_encoder
    monkeypatch.setattr(json.encoder, "c_make_encoder", make_encoder)
    spec = importlib.util.spec_from_file_location("sceneqa._cli_probe", cli.__file__)
    probe = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, probe)
    spec.loader.exec_module(probe)
    assert probe._c_encode is None
    monkeypatch.setattr(json.encoder, "c_make_encoder", saved)  # encode's own, as stdlib has it
    doc = {"b": [-0.0, 1e16], "a": {"z": "\u00e9\n", "y": None}}
    assert probe._dump_line(doc) == _reference_dump_line(doc)


def test_a_failed_line_leaves_no_circular_reference_marks():
    doc = {"meta": {"bad": [object()]}}
    with pytest.raises(TypeError):
        cli._dump_line(doc)
    doc["meta"]["bad"] = [1.5]  # the same containers, now encodable
    assert cli._dump_line(doc) == _reference_dump_line(doc)
    cyclic = {"a": []}
    cyclic["a"].append(cyclic)
    with pytest.raises(ValueError, match="Circular reference"):
        cli._dump_line(cyclic)
    assert cli._dump_line({"a": [1]}) == _reference_dump_line({"a": [1]})


def test_dump_line_on_every_line_of_the_benchmark_records(tmp_path, monkeypatch):
    """The gen_geom benchmark corpus at seed 1: every line, header included,
    re-encodes to itself."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    scenes = tmp_path / "scenes"
    workloads.build_scene_corpus(scenes, 1, workloads.TAG_GEN_GEOM, 60)
    out = tmp_path / "records.jsonl"
    assert cli.main(["gen", "--input-root", str(scenes), "--out", str(out), "--seed", "1",
                     "--workers", "1"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 14_517
    for line in lines:
        doc = json.loads(line)
        assert cli._dump_line(doc) == _reference_dump_line(doc) == line
