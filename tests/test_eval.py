import collections
import copy
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneqa import evaluate
from sceneqa.cli import read_records_jsonl
from sceneqa.errors import DuplicateQid, InputError
from sceneqa.evaluate import (
    STATUSES,
    Prediction,
    extract_number,
    match_option,
    mra,
    render_table,
    score_run,
)
from sceneqa.qa_records import GenConfig, QaRecord, TaskRecords, record_to_dict


def mra_loop_oracle(pred, truth):
    """Explicit ten-threshold loop, spelled out independently."""
    hits = 0
    for theta in [0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95]:
        if abs(pred - truth) / truth < 1.0 - theta:
            hits += 1
    return hits / 10.0


# --- mra -------------------------------------------------------------------------

def test_mra_exact_prediction():
    assert mra(2.0, 2.0) == 1.0


def test_mra_hand_enumerated_example():
    # rel err 0.1 passes every threshold below 0.9 -> 8 of 10
    assert mra(2.2, 2.0) == 0.8


def test_mra_boundary_is_strict():
    # rel err exactly 0.5 fails even the loosest threshold
    assert mra(3.0, 2.0) == 0.0


def test_mra_equals_loop_oracle_on_random_pairs():
    rng = np.random.default_rng(123)
    preds = rng.uniform(0.0, 20.0, size=100_000)
    truths = rng.uniform(0.01, 20.0, size=100_000)
    for p, t in zip(preds, truths):
        assert mra(float(p), float(t)) == mra_loop_oracle(float(p), float(t))


@settings(max_examples=300, deadline=None)
@given(truth=st.floats(0.01, 100.0),
       e1=st.floats(0.0, 100.0), e2=st.floats(0.0, 100.0))
def test_mra_monotone_in_absolute_error(truth, e1, e2):
    lo, hi = sorted([e1, e2])
    assert mra(truth + hi, truth) <= mra(truth + lo, truth)


# --- extract_number -----------------------------------------------------------------

def test_extract_number_simple():
    assert extract_number("The distance is about 2.5 meters.") == 2.5


def test_extract_number_comma_not_grouping():
    assert extract_number("roughly 1,200 cm") == 1.0


def test_extract_number_sign_and_bare_decimal():
    assert extract_number("-3.5") == -3.5
    assert extract_number("about .75 m") == 0.75


def test_extract_number_none_found():
    assert extract_number("I cannot tell.") is None


def test_extract_number_beyond_the_float_range_is_none():
    assert extract_number("about 4" + "0" * 400 + " m") is None
    assert extract_number("about 4" + "0" * 300 + " m") == 4e300


# --- match_option ---------------------------------------------------------------------

OPTIONS = ["turn back", "turn left", "turn right"]


def test_match_letter_leading():
    assert match_option("B. turn left", OPTIONS) == 1
    assert match_option("(c) something", OPTIONS) == 2
    assert match_option("b", OPTIONS) == 1
    assert match_option("The answer is B.", OPTIONS) == 1


def test_match_substring_unique():
    assert match_option("the chair", ["chair", "table", "lamp", "sofa"]) == 0
    assert match_option("I would turn left here", OPTIONS) == 1


def test_match_token_overlap():
    assert match_option("left", OPTIONS) == 1


def test_match_ambiguous_and_none():
    assert match_option("turn left or turn right", OPTIONS) == "ambiguous"
    assert match_option("no idea", OPTIONS) == "no_match"
    assert match_option("(a) no wait, (b)", OPTIONS) == "ambiguous"


def test_bare_letter_handling():
    # leading article "a"/"A" must not select option A ...
    assert match_option("a turn left is needed", OPTIONS) == 1
    assert match_option("A turn right", OPTIONS) == 2
    # ... but a trailing bare uppercase letter is an answer
    assert match_option("The answer is B", OPTIONS) == 1


# --- score_run ---------------------------------------------------------------------------

def rec(qid, task, answer_type, gt, options=None):
    return QaRecord(qid=qid, scene_id="s", task=task, answer_type=answer_type,
                    question="q", options=options, ground_truth=gt,
                    frame_refs=(), meta={})


FIXTURE = [
    rec("s:abs_dist:0000", "abs_dist", "NA", "2.0"),
    rec("s:abs_dist:0001", "abs_dist", "NA", "4.0"),
    rec("s:obj_count:0000", "obj_count", "NA", "3"),
    rec("s:rel_dir:0000", "rel_dir", "MCA", "left", ("left", "right", "back")),
    rec("s:rel_dir:0001", "rel_dir", "MCA", "back", ("left", "right", "back")),
    rec("s:route_plan:0000", "route_plan", "MCA", "turn left",
        ("turn back", "turn left", "turn right")),
]

@pytest.mark.parametrize("args,fragment", [
    (("bogus", "NA", "2"), "unknown task"),
    (("abs_dist", "XX", "2"), "unknown answer type"),
    (("abs_dist", "NA", "0.0"), "must be positive"),
    (("abs_dist", "NA", "2", ("2", "3")), "must not carry options"),
    (("rel_dir", "MCA", "up", ("left", "right", "back")), "not among options"),
    (("rel_dir", "MCA", "left", ("left", "left", "back")), "pairwise distinct"),
    (("rel_dir", "MCA", "left", ("left", "right")), "expects 3 options"),
    (("obj_count", "MCA", "3", ("1", "2", "3")), "obj_count is an NA task, not MCA"),
    (("rel_dir", "NA", "2.5"), "rel_dir is an MCA task, not NA"),
])
def test_a_record_that_breaks_the_invariants_is_never_made(args, fragment):
    with pytest.raises(ValueError, match=fragment):
        rec("s:x:0000", *args)
    task, answer_type, truth, *options = args
    out = TaskRecords("s", task, GenConfig())
    with pytest.raises(ValueError, match=fragment):
        out.add(answer_type, "q", truth, options=options[0] if options else None)
    assert out.records == []


PREDICTIONS = [
    Prediction("s:abs_dist:0000", "exactly 2.0 meters"),   # mra 1.0
    Prediction("s:abs_dist:0001", "about 4.4"),            # rel err 0.1 -> 0.8
    Prediction("s:obj_count:0000", "I count 4 of them"),   # rel err 1/3 -> 0.4
    Prediction("s:rel_dir:0000", "A"),                     # letter -> left, correct
    Prediction("s:rel_dir:0001", "it is to the right"),    # wrong option
    # route_plan prediction missing -> 0
]

# hand-scored: abs_dist (1.0 + 0.8)/2 = 0.9; obj_count 0.4;
# rel_dir (1 + 0)/2 = 0.5; route_plan 0/1 = 0
EXPECTED_PER_TASK = {
    "abs_dist": {"count": 2, "score": 0.9},
    "obj_count": {"count": 1, "score": 0.4},
    "rel_dir": {"count": 2, "score": 0.5},
    "route_plan": {"count": 1, "score": 0.0},
}
EXPECTED_OVERALL = (0.9 + 0.4 + 0.5 + 0.0) / 4


def test_score_run_hand_scored_fixture():
    report = score_run(FIXTURE, PREDICTIONS)
    for task, want in EXPECTED_PER_TASK.items():
        assert report.per_task[task]["count"] == want["count"]
        assert report.per_task[task]["score"] == pytest.approx(want["score"])
    assert report.overall == pytest.approx(EXPECTED_OVERALL)
    missing = [j for j in report.per_question if j["status"] == "missing"]
    assert [j["qid"] for j in missing] == ["s:route_plan:0000"]


def test_score_run_perfect_predictions():
    preds = [Prediction(r.qid, r.ground_truth) for r in FIXTURE]
    report = score_run(FIXTURE, preds)
    assert all(v["score"] == 1.0 for v in report.per_task.values())
    assert report.overall == 1.0


def test_score_run_empty_predictions():
    report = score_run(FIXTURE, [])
    assert report.overall == 0.0
    assert {t: v["count"] for t, v in report.per_task.items()} == \
        {t: v["count"] for t, v in EXPECTED_PER_TASK.items()}


def test_score_run_permutation_invariant():
    a = score_run(FIXTURE, PREDICTIONS).to_dict()
    b = score_run(FIXTURE, list(reversed(PREDICTIONS))).to_dict()
    assert a == b


def test_score_run_duplicate_qid():
    with pytest.raises(DuplicateQid):
        score_run(FIXTURE, [Prediction("s:abs_dist:0000", "2"),
                            Prediction("s:abs_dist:0000", "3")])


def test_score_run_question_weighting_flag():
    report = score_run(FIXTURE, PREDICTIONS, weight_by_question=True)
    want = (1.0 + 0.8 + 0.4 + 1.0 + 0.0 + 0.0) / 6
    assert report.overall == pytest.approx(want)


# Scores 0.1, 0.2 and 0.3 (relative errors 0.46, 0.41 and 0.36), one per
# task, in qid and task order: added left to right they come to
# 0.6000000000000001, while a compensated sum, which Python's builtin sum is
# from 3.12 on, gives 0.6.
LEFT_TO_RIGHT_RECORDS = [rec(f"s:{task}:0000", task, "NA", "10.0")
                         for task in ("abs_dist", "obj_size", "room_size")]
LEFT_TO_RIGHT_PREDICTIONS = [Prediction(r.qid, pred)
                             for r, pred in zip(LEFT_TO_RIGHT_RECORDS, ["14.6", "14.1", "13.6"])]


@pytest.mark.parametrize("weight_by_question", [False, True])
def test_overall_is_added_left_to_right_on_every_python(monkeypatch, weight_by_question):
    scores, left_to_right = [0.1, 0.2, 0.3], 0.0
    for score in scores:
        left_to_right += score
    assert left_to_right != math.fsum(scores)
    monkeypatch.setattr(evaluate, "sum", math.fsum, raising=False)  # as 3.12's builtin
    report = score_run(LEFT_TO_RIGHT_RECORDS, LEFT_TO_RIGHT_PREDICTIONS,
                       weight_by_question=weight_by_question)
    assert [j["score"] for j in report.per_question] == scores
    assert report.overall == left_to_right / 3


# every status at least once, and two predictions whose qid names no record
STATUS_RECORDS = FIXTURE + [
    rec("s:abs_dist:0002", "abs_dist", "NA", "1.0"),
    rec("s:rel_dir:0002", "rel_dir", "MCA", "left", ("left", "right", "back")),
    rec("s:rel_dir:0003", "rel_dir", "MCA", "right", ("left", "right", "back")),
]
STATUS_PREDICTIONS = PREDICTIONS + [
    Prediction("s:abs_dist:0002", "no idea"),            # no_number
    Prediction("s:rel_dir:0002", "purple"),              # no_match
    Prediction("s:rel_dir:0003", "(a) or (b)"),          # ambiguous
    Prediction("s:abs_dist:0099", "2"),                  # unknown qid
    Prediction("other:rel_dir:0000", "A"),               # unknown qid
]


MCA_RECORD = rec("s:rel_dir:0000", "rel_dir", "MCA", "right", ("left", "right", "back"))
NA_RECORD = rec("s:abs_dist:0000", "abs_dist", "NA", "2.0")
# status -> (record, prediction text or None for none, the judgment's other keys)
STATUS_CASES = {
    "scored": (MCA_RECORD, "(b)", {"matched": "right", "score": 1.0}),
    "no_match": (MCA_RECORD, "purple", {}),
    "ambiguous": (MCA_RECORD, "(a) or (b)", {}),
    "no_number": (NA_RECORD, "no idea", {}),
    "missing": (NA_RECORD, None, {}),
}


@pytest.mark.parametrize("status", STATUSES)
def test_score_run_judges_each_status(status):
    record, text, extra = STATUS_CASES[status]
    preds = [] if text is None else [Prediction(record.qid, text)]
    [judgment] = score_run([record], preds).per_question
    want = {"qid": record.qid, "task": record.task, "score": 0.0, "status": status, **extra}
    assert list(judgment.items()) == list(want.items())  # the keys in report order too


def test_score_run_scores_a_parsed_number():
    [judgment] = score_run([NA_RECORD], [Prediction(NA_RECORD.qid, "about 2.2 m")]).per_question
    assert list(judgment.items()) == [("qid", NA_RECORD.qid), ("task", "abs_dist"),
                                      ("score", 0.8), ("status", "scored"), ("parsed", 2.2)]


def test_score_run_counts_each_status_and_unknown_qids():
    report = score_run(STATUS_RECORDS, STATUS_PREDICTIONS)
    doc = report.to_dict()
    zero = dict.fromkeys(STATUSES, 0)
    assert doc["status_counts"] == {
        "abs_dist": {**zero, "scored": 2, "no_number": 1},
        "obj_count": {**zero, "scored": 1},
        "rel_dir": {**zero, "scored": 2, "no_match": 1, "ambiguous": 1},
        "route_plan": {**zero, "missing": 1},
    }
    assert doc["unknown_qid"] == 2
    for task, counts in doc["status_counts"].items():
        assert sum(counts.values()) == doc["per_task"][task]["count"]
    # the totals, as the benchmark's tracing derives them from per_question
    derived = collections.Counter(j["status"] for j in doc["per_question"])
    known = {r.qid for r in STATUS_RECORDS}
    derived["unknown_qid"] = sum(1 for p in STATUS_PREDICTIONS if p.qid not in known)
    totals = collections.Counter()
    for counts in doc["status_counts"].values():
        totals.update(counts)
    assert {s: totals[s] for s in STATUSES} == {s: derived[s] for s in STATUSES}
    assert doc["unknown_qid"] == derived["unknown_qid"]


def test_status_counts_leave_the_other_report_keys_and_the_table_alone():
    report = score_run(STATUS_RECORDS, STATUS_PREDICTIONS)
    doc = report.to_dict()
    assert list(doc) == ["overall", "overall_weighting", "per_task", "per_question",
                         "status_counts", "unknown_qid"]
    assert all(set(v) == {"count", "score"} for v in doc["per_task"].values())
    assert "unknown" not in render_table(report) and "missing" not in render_table(report)


def test_render_table_mentions_every_task():
    text = render_table(score_run(FIXTURE, PREDICTIONS))
    for task in EXPECTED_PER_TASK:
        assert task in text
    assert "overall" in text


def test_match_single_option_by_token_overlap():
    # a one-option record is valid for tasks without a fixed option count
    assert match_option("foo", ["foo bar"]) == 0


# --- read_records_jsonl fuzzed --------------------------------------------------------

RECORD_DOCS = [record_to_dict(r) for r in FIXTURE]
FUZZ_VALUES = [True, 0, 7, -1.5, 1e308, 10 ** 400, "", "x", "A", "left", "2", "-2", "0",
               "inf", "nan", "1e400", None, [], {}, [1, 2, 3], ["left", None, "back"],
               ["left"], ["a b"], ["left", "left"], [0, 3], {"k": 1}]
ANSWERS = ["A", "(b)", "C", "left", "foo", "a b", "3.5", "", "1e400", "-1"]


def mutate_record(doc, data):
    kind = data.draw(st.sampled_from(["drop", "retype", "element", "replace"]), label="kind")
    if kind == "replace":
        return data.draw(st.sampled_from([None, 5, "x", [1], []]), label="line")
    if kind == "element":
        values = doc.get(data.draw(st.sampled_from(["options", "frame_refs"])))
        if isinstance(values, list) and values:
            k = data.draw(st.integers(0, len(values) - 1))
            values[k] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES), label="value"))
        return doc
    key = data.draw(st.sampled_from(sorted(doc) + ["options", "meta"]), label="key")
    if kind == "drop":
        doc.pop(key, None)
    else:
        doc[key] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES), label="value"))
    return doc


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_record_lines_load_or_name_their_line(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(RECORD_DOCS), label="base"))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        if isinstance(doc, dict):
            doc = mutate_record(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_text("".join(json.dumps(d) + "\n"
                                for d in ({"_header": {}}, doc, RECORD_DOCS[0])))
        try:
            _, records = read_records_jsonl(path)
        except InputError as exc:
            assert str(exc).startswith(f"{path}:2: "), exc
            return
    answers = {r.qid: data.draw(st.sampled_from(ANSWERS + [r.ground_truth]), label="answer")
               for r in records if r.qid}
    preds = [Prediction(q, a) for q, a in answers.items()]
    if records[0].qid == records[1].qid:  # one question cannot be judged twice
        with pytest.raises(DuplicateQid, match=re.escape(f"record qid {records[0].qid} ")):
            score_run(records, preds)
        return
    report = score_run(records, preds, weight_by_question=data.draw(st.booleans()))
    assert len(report.per_question) == len(records)
    render_table(report)
