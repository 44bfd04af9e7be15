"""Markdown and TSV rendering of evaluation results.

The main accuracy table has one row per method and one (category, +-Aux)
column pair per category; the per-column maximum is bold. The gains table
lists per-feature before/after/gain triples grouped by category
(:func:`top_gains`). The module imports no numpy, so the ``report`` stage
loads none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from .config import CATEGORIES, category_of
from .corpus import read_tsv, write_records

if TYPE_CHECKING:
    from .predict import EvalReport

CATEGORY_LABELS = {"syntax": "Syntax", "phonology": "Phonology", "inventory": "Inventory"}
AUX_LABELS = {False: "-Aux", True: "+Aux"}

# The header of each TSV that the ``predict`` stage writes and later stages read.
REPORT_HEADER = ("method", "category", "aux", "accuracy")
FEATURE_ACCURACY_HEADER = ("method", "aux", "feature", "accuracy")
PREDICTIONS_HEADER = ("method", "aux", "lang", "feature", "pred", "gold")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_main_table(cells: dict[tuple[str, bool], dict[str, float]],
                      methods, categories=CATEGORIES) -> str:
    """Markdown accuracy grid; ``cells`` maps (method, aux) -> category -> value."""
    methods = list(methods)
    columns = [(cat, aux) for cat in categories for aux in (False, True)]
    header = ["Method"] + [f"{CATEGORY_LABELS[c]} {AUX_LABELS[a]}" for c, a in columns]
    best: dict[tuple[str, bool], float] = {
        col: max(cells[(m, col[1])][col[0]] for m in methods) for col in columns
    }
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for method in methods:
        row = [method]
        for cat, aux in columns:
            value = cells[(method, aux)][cat]
            text = _fmt(value)
            if value == best[(cat, aux)]:
                text = f"**{text}**"
            row.append(text)
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


@dataclass
class GainRow:
    feature: str
    before: float
    after: float
    gain: float


# The most rows per category of the gains table.
TOP_GAINS = 5


def top_gains(acc_a: dict[str, float], acc_b: dict[str, float], category: str) -> list[GainRow]:
    """The :data:`TOP_GAINS` largest per-feature accuracy improvements from A to B in a category."""
    rows = [
        GainRow(f, acc_a[f], acc_b[f], acc_b[f] - acc_a[f])
        for f in acc_a
        if f in acc_b and category_of(f) == category
    ]
    rows.sort(key=lambda r: (-r.gain, r.feature))
    return rows[:TOP_GAINS]


def render_gains_table(rows_by_category: dict[str, list[GainRow]]) -> str:
    """Markdown gains table from None -Aux to MTBoth -Aux, categories stacked
    in syntax/phonology/inventory order."""
    lines = [
        "| Feature | None -Aux | MTBoth -Aux | Gain |",
        "|---|---|---|---|",
    ]
    for category in CATEGORIES:
        for row in rows_by_category.get(category, []):
            lines.append(
                f"| {row.feature} | {_fmt(row.before)} | {_fmt(row.after)} | {_fmt(row.gain)} |"
            )
    return "\n".join(lines) + "\n"


def write_report_tsv(path, report: EvalReport) -> None:
    """Flat accuracy dump: method, category, aux, accuracy."""
    write_records(path, chain([REPORT_HEADER], (
        (method, category, AUX_LABELS[aux], report.cells[(method, aux)][category])
        for method in report.methods for category in report.categories for aux in report.aux_settings)))


def write_feature_accuracy_tsv(path, report: EvalReport) -> None:
    write_records(path, chain([FEATURE_ACCURACY_HEADER], (
        (method, AUX_LABELS[aux], feature, accs[feature])
        for (method, aux), accs in sorted(report.feature_accuracy.items()) for feature in sorted(accs))))


def write_predictions_tsv(path, report: EvalReport) -> None:
    write_records(path, chain([PREDICTIONS_HEADER], (
        (method, AUX_LABELS[aux], lang, feature, pred, gold)
        for (method, aux), preds in sorted(report.predictions.items())
        for (lang, feature), (pred, gold) in sorted(preds.items()))))


def _parse_aux(label: str) -> bool:
    if label not in ("-Aux", "+Aux"):
        raise ValueError(f"aux label {label!r} is neither -Aux nor +Aux")
    return label == "+Aux"


def read_report_tsv(path):
    """Returns (cells, methods, categories); methods and categories in file order.

    Every (method, aux, category) cell of the grid must be present."""
    cells: dict[tuple[str, bool], dict[str, float]] = {}
    methods: list[str] = []
    categories: list[str] = []

    def row(fields):
        method, category, aux, accuracy = fields
        if category not in CATEGORY_LABELS:
            raise ValueError(f"unknown category {category!r}")
        cells.setdefault((method, _parse_aux(aux)), {})[category] = float(accuracy)
        if method not in methods:
            methods.append(method)
        if category not in categories:
            categories.append(category)

    read_tsv(path, REPORT_HEADER, row)
    missing = [(m, label, c) for m in methods for aux, label in AUX_LABELS.items()
               for c in categories if c not in cells.get((m, aux), {})]
    if missing:
        raise ValueError(f"{path}: no accuracy for {' '.join(missing[0])}")
    return cells, methods, categories


def read_feature_accuracy_tsv(path) -> dict[tuple[str, bool], dict[str, float]]:
    out: dict[tuple[str, bool], dict[str, float]] = {}

    def row(fields):
        method, aux, feature, accuracy = fields
        category_of(feature)  # rejects a name without a category prefix
        out.setdefault((method, _parse_aux(aux)), {})[feature] = float(accuracy)

    read_tsv(path, FEATURE_ACCURACY_HEADER, row)
    return out


def read_predictions_tsv(path) -> dict[tuple[str, bool], dict[tuple[str, str], tuple[int, int]]]:
    out: dict[tuple[str, bool], dict[tuple[str, str], tuple[int, int]]] = {}

    def row(fields):
        method, aux, lang, feature, pred, gold = fields
        out.setdefault((method, _parse_aux(aux)), {})[(lang, feature)] = (int(pred), int(gold))

    read_tsv(path, PREDICTIONS_HEADER, row)
    return out
