"""Scoring of model predictions against generated question records.

Numeric answers are scored with mean relative accuracy over the ten
tolerance levels theta in {0.50, 0.55, ..., 0.95}: each level passes when
|pred - truth| / truth < 1 - theta (strict). Multiple-choice answers are
matched by option letter, then by normalized substring, then by token
overlap; unmatched or ambiguous predictions score zero and are flagged.
"""

from __future__ import annotations

import functools
import math
import re

from .errors import AmbiguousMatch, DuplicateQid, NoMatch, NoNumberFound
from .frozen import Frozen, set_field
from .geometry import ordered_sum
from .qa_records import ANSWER_NA, TASK_ORDER

# The ten tolerance levels, written out so the grid is exact and auditable.
THETA_GRID = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)

# Every judgment's status, in report order.
STATUSES = ("scored", "no_match", "ambiguous", "no_number", "missing")

_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)"
_LONE_LETTER = r"[\(\[]?([A-Da-d])[\)\]\.:,]?"
_PUNCT_LETTER = r"(?:^|\s)[\(\[]?([A-Da-d])[\)\]\.:,?!](?=\s|$)"
_BRACKET_LETTER = r"[\(\[]([A-Da-d])[\)\]]"


@functools.cache
def _regex(pattern: str) -> re.Pattern:
    """``pattern`` compiled on first use, so that only ``eval`` pays for it."""
    return re.compile(pattern)


class Prediction(Frozen):
    """A model's answer text to one question."""

    __slots__ = _fields = ("qid", "raw_text")

    def __init__(self, qid: str, raw_text: str):
        if not isinstance(qid, str) or not qid:
            raise ValueError(f"qid must be a nonempty string, got {qid!r}")
        if not isinstance(raw_text, str):
            raise ValueError(f"raw_text must be a string, got {raw_text!r}")
        set_field(self, "qid", qid)
        set_field(self, "raw_text", raw_text)


def mra(pred: float, truth: float) -> float:
    """Mean relative accuracy: fraction of tolerance levels the prediction
    meets. ``truth`` is positive: ``validate_record`` rejects any other
    numeric truth when a record is made and when it is read."""
    rel = abs(pred - truth) / truth
    passed = sum(1 for theta in THETA_GRID if rel < 1.0 - theta)
    return passed / len(THETA_GRID)


def extract_number(text: str) -> float:
    """First decimal numeral in the text (optional sign and decimal point).

    No unit conversion is attempted and commas are not digit grouping:
    "1,200" yields 1. Raises NoNumberFound when the text has no numeral, or
    when the first one is beyond the float range.
    """
    m = _regex(_NUMBER).search(text)
    if m is None:
        raise NoNumberFound(f"no numeral in {text!r}")
    value = float(m.group(0))
    if math.isinf(value):
        raise NoNumberFound(f"numeral beyond the float range in {text!r}")
    return value


def _normalize(text: str) -> str:
    return re.sub(r"[^a-z0-9 ]+", " ", text.lower()).strip()


def _tokens(text: str):
    return set(_normalize(text).split())


def match_option(text: str, options) -> int:
    """Index of the option the text selects.

    Priority: (1) an option letter A-D -- the whole text, punctuated or
    bracketed anywhere ("B.", "(c)", "answer: D"), or a bare uppercase
    letter that is not the leading word (leading "A" is usually an
    article, and bare lowercase letters are always ignored). (2) a unique
    option whose normalized form appears in the normalized text; (3) the
    unique option with maximal token overlap, winning by at least one
    token. Raises NoMatch / AmbiguousMatch.
    """
    options = list(options)
    letters = set()
    m = _regex(_LONE_LETTER).fullmatch(text.strip())
    if m:
        letters.add(m.group(1).upper())
    for m in _regex(_PUNCT_LETTER).finditer(text):
        letters.add(m.group(1).upper())
    for m in _regex(_BRACKET_LETTER).finditer(text):
        letters.add(m.group(1).upper())
    for i, token in enumerate(text.split()):
        if i > 0 and token in ("A", "B", "C", "D"):
            letters.add(token)
    letters = {l for l in letters if ord(l) - ord("A") < len(options)}
    if len(letters) > 1:
        raise AmbiguousMatch(f"several option letters in {text!r}")
    if len(letters) == 1:
        return ord(letters.pop()) - ord("A")

    norm_text = " " + _normalize(text) + " "
    contained = [i for i, opt in enumerate(options)
                 if " " + _normalize(opt) + " " in norm_text
                 or _normalize(opt) in norm_text.replace(" ", "")]
    if len(contained) == 1:
        return contained[0]

    text_tokens = _tokens(text)
    overlaps = [len(text_tokens & _tokens(opt)) for opt in options]
    best = max(overlaps)
    if best == 0:
        raise NoMatch(f"{text!r} matches no option")
    winners = [i for i, v in enumerate(overlaps) if v == best]
    if len(winners) > 1:
        raise AmbiguousMatch(f"{text!r} matches several options equally")
    return winners[0]


class EvalReport(Frozen):
    """The scores of one run: ``per_task`` maps a task to ``{"count": int,
    "score": float}``, ``per_question`` holds the judgment dicts sorted by
    qid, ``status_counts`` maps a task to its judgments by status (every
    status listed), and ``unknown_qid`` counts the predictions whose qid
    names no record."""

    __slots__ = _fields = ("per_task", "overall", "per_question", "weight_by_question",
                           "status_counts", "unknown_qid")

    def __init__(self, per_task: dict, overall: float, per_question: tuple,
                 weight_by_question: bool, status_counts: dict, unknown_qid: int):
        set_field(self, "per_task", per_task)
        set_field(self, "overall", overall)
        set_field(self, "per_question", per_question)
        set_field(self, "weight_by_question", weight_by_question)
        set_field(self, "status_counts", status_counts)
        set_field(self, "unknown_qid", unknown_qid)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "overall_weighting": ("per_question" if self.weight_by_question
                                  else "mean_of_task_means"),
            "per_task": {t: dict(v) for t, v in sorted(self.per_task.items())},
            "per_question": [dict(j) for j in self.per_question],
            "status_counts": {t: dict(v) for t, v in sorted(self.status_counts.items())},
            "unknown_qid": self.unknown_qid,
        }


def score_run(records, preds, weight_by_question: bool = False) -> EvalReport:
    """Score predictions against records.

    Missing predictions score 0 and stay in the counts. The overall score is
    the unweighted mean of per-task scores (the benchmark averages task
    columns); per-question weighting is available behind the flag. The
    report also counts each task's judgments by status, and the predictions
    whose qid names no record, which are otherwise ignored.
    """
    by_qid = {}
    for p in preds:
        if p.qid in by_qid:
            raise DuplicateQid(f"prediction qid {p.qid} appears twice")
        by_qid[p.qid] = p

    records = sorted(records, key=lambda r: r.qid)
    for rec, after in zip(records, records[1:]):
        if rec.qid == after.qid:
            raise DuplicateQid(f"record qid {rec.qid} appears twice")

    judgments = []
    for rec in records:
        j = {"qid": rec.qid, "task": rec.task, "score": 0.0, "status": "missing"}
        pred = by_qid.get(rec.qid)
        if pred is not None:
            if rec.answer_type == ANSWER_NA:
                try:
                    value = extract_number(pred.raw_text)
                    j["parsed"] = value
                    j["score"] = mra(value, float(rec.ground_truth))
                    j["status"] = "scored"
                except NoNumberFound:
                    j["status"] = "no_number"
            else:
                try:
                    idx = match_option(pred.raw_text, rec.options)
                    j["matched"] = rec.options[idx]
                    j["score"] = 1.0 if rec.options[idx] == rec.ground_truth else 0.0
                    j["status"] = "scored"
                except NoMatch:
                    j["status"] = "no_match"
                except AmbiguousMatch:
                    j["status"] = "ambiguous"
        judgments.append(j)

    per_task, status_counts = {}, {}
    for j in judgments:
        bucket = per_task.setdefault(j["task"], {"count": 0, "score": 0.0})
        bucket["count"] += 1
        bucket["score"] += j["score"]
        status_counts.setdefault(j["task"], dict.fromkeys(STATUSES, 0))[j["status"]] += 1
    unknown_qid = len(by_qid.keys() - {rec.qid for rec in records})
    for bucket in per_task.values():
        bucket["score"] = bucket["score"] / bucket["count"]

    # Added left to right on every Python: 3.12's builtin sum is compensated.
    if weight_by_question:
        overall = (ordered_sum(j["score"] for j in judgments) / len(judgments)
                   if judgments else 0.0)
    else:
        overall = (ordered_sum(b["score"] for b in per_task.values()) / len(per_task)
                   if per_task else 0.0)

    return EvalReport(per_task, overall, tuple(judgments), weight_by_question, status_counts,
                      unknown_qid)


def render_table(report: EvalReport) -> str:
    """Human-readable per-task table."""
    lines = [f"{'task':<18}{'count':>7}{'score':>9}"]
    for task in sorted(report.per_task, key=lambda t: TASK_ORDER.get(t, 99)):
        entry = report.per_task[task]
        lines.append(f"{task:<18}{entry['count']:>7}{entry['score']:>9.3f}")
    lines.append(f"{'overall':<18}{'':>7}{report.overall:>9.3f}")
    return "\n".join(lines)
