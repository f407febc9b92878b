"""Exact references and output checks for every CLI invocation of a session.

Each check takes what the program wrote and the benchmark's own reference
answer (see ``workloads``), and returns ``None`` when the output is right or
a one-line description of the first problem found. Nothing here imports the
code under test: verdicts are re-derived with ``fractions.Fraction``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

SVG_NS = "{http://www.w3.org/2000/svg}"
# between + within must match the fsum reference total to this share of the
# largest of |total|, |between| and |within|
COV_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Exact references


def direction(a: Fraction, b: Fraction) -> str:
    if a > b:
        return "FIRST_HIGHER"
    if b > a:
        return "SECOND_HIGHER"
    return "TIE"


def classify(cells: list[tuple[int, int, int, int]]) -> tuple[str, str]:
    """(classification, aggregate direction) of (t1, p1, t2, p2) strata,
    decided with Fractions and no tie allowance."""
    dirs = [direction(Fraction(p1, t1), Fraction(p2, t2)) for t1, p1, t2, p2 in cells]
    agg = direction(
        Fraction(sum(c[1] for c in cells), sum(c[0] for c in cells)),
        Fraction(sum(c[3] for c in cells), sum(c[2] for c in cells)),
    )
    non_tie = {d for d in dirs if d != "TIE"}
    if len(non_tie) == 1 and "TIE" not in dirs:
        (only,) = non_tie
        if agg != "TIE" and agg != only:
            return "FULL_REVERSAL", agg
    if all(d == agg for d in dirs if d != "TIE"):
        return "CONSISTENT", agg
    return "MIXED", agg


def standardized_direction(cells, reference: str) -> str:
    """Direction of the reference-weighted rates, in exact arithmetic."""
    if reference == "combined":
        weights = [t1 + t2 for t1, _, t2, _ in cells]
    elif reference == "first":
        weights = [t1 for t1, _, _, _ in cells]
    elif reference == "second":
        weights = [t2 for _, _, t2, _ in cells]
    else:
        weights = [1] * len(cells)
    first = sum(w * Fraction(p1, t1) for w, (t1, p1, _, _) in zip(weights, cells))
    second = sum(w * Fraction(p2, t2) for w, (_, _, t2, p2) in zip(weights, cells))
    return direction(first, second)


def parse_table(text: str) -> list[tuple[int, int, int, int]]:
    """(t1, p1, t2, p2) per stratum from a table CSV whose rows come in
    first-group/second-group pairs, as both the benchmark and ``generate``
    write them."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["stratum", "group", "total", "positive"]:
        raise ValueError("bad table header")
    body = [r for r in rows[1:] if r]
    if len(body) % 2:
        raise ValueError("odd number of table rows")
    cells = []
    for a, b in zip(body[::2], body[1::2]):
        if a[0] != b[0] or a[1] == b[1]:
            raise ValueError(f"unpaired rows for stratum {a[0]!r}")
        cells.append((int(a[2]), int(a[3]), int(b[2]), int(b[3])))
    return cells


# ---------------------------------------------------------------------------
# Checks


def _json(stdout: bytes):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def check_scan(stdout: bytes, rows: int, expected: dict) -> str | None:
    doc, err = _json(stdout)
    if err:
        return err
    try:
        if doc["input"]["rows"] != rows:
            return f"scan read {doc['input']['rows']} rows, expected {rows}"
        found = {f["covariate"]: f for f in doc["findings"]}
        skipped = {s["covariate"] for s in doc["skipped"]}
        for cand, ref in expected.items():
            if ref is None:
                if cand not in skipped:
                    return f"{cand}: expected a skip (a stratum is one-sided)"
                continue
            f = found.get(cand)
            if f is None:
                return f"{cand}: missing from findings"
            if f["stratum_sizes"] != ref["stratum_sizes"]:
                return f"{cand}: stratum sizes differ from the reference tally"
            if f["report"]["classification"] != ref["classification"]:
                return (
                    f"{cand}: classification {f['report']['classification']}, "
                    f"expected {ref['classification']}"
                )
        if found["severity"]["report"]["classification"] != "FULL_REVERSAL":
            return "severity is not reported as FULL_REVERSAL"
        if set(found) | skipped != set(expected):
            return "findings and skips do not cover exactly the candidates"
    except (KeyError, TypeError) as exc:
        return f"scan report lacks {exc}"
    return None


def check_analyze(
    stdout: bytes, strata: int, classification: str, aggregate: str, standardized: str
) -> str | None:
    doc, err = _json(stdout)
    if err:
        return err
    try:
        got = (
            doc["input"]["strata"],
            doc["reversal"]["classification"],
            doc["reversal"]["aggregate_direction"],
            doc["standardized"]["direction"],
        )
    except (KeyError, TypeError) as exc:
        return f"analyze report lacks {exc}"
    want = (strata, classification, aggregate, standardized)
    if got != want:
        return f"analyze (strata, classification, aggregate, standardized) = {got}, expected {want}"
    return None


_DIRECTION_TEXT = {"FIRST_HIGHER": "-> control higher", "SECOND_HIGHER": "-> treated higher", "TIE": "-> tie"}


def check_standardize(stdout: bytes, standardized: str) -> str | None:
    lines = stdout.decode("utf-8", "replace").splitlines()
    line = next((ln for ln in lines if ln.startswith("standardized (reference=first)")), None)
    if line is None:
        return "standardize printed no standardized line"
    if not line.endswith(_DIRECTION_TEXT[standardized]):
        return f"standardized direction {line.rsplit('->', 1)[-1].strip()!r}, expected {standardized}"
    return None


def check_generate(stdout: bytes, strata: int) -> str | None:
    try:
        cells = parse_table(stdout.decode("utf-8"))
    except (ValueError, IndexError) as exc:
        return f"generate output is not a paired table CSV: {exc}"
    if len(cells) != strata:
        return f"generate emitted {len(cells)} strata, expected {strata}"
    if classify(cells)[0] != "FULL_REVERSAL":
        return "generated table does not re-check as a full reversal"
    return None


def check_plot(svg: bytes | None, strata: int) -> str | None:
    if not svg:
        return "plot wrote no SVG"
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    chords = [p for p in root.iter(f"{SVG_NS}path") if p.get("class") == "stratum-chord"]
    if len(chords) != 2 * strata:
        return f"SVG has {len(chords)} stratum chords, expected {2 * strata}"
    return None


def check_decompose(stdout: bytes, rows: int, expected: dict) -> str | None:
    doc, err = _json(stdout)
    if err:
        return err
    try:
        if doc["input"]["rows"] != rows:
            return f"decompose read {doc['input']['rows']} rows, expected {rows}"
        sizes = {g["label"]: g["n"] for g in doc["groups"]}
        if sizes != expected["sizes"]:
            return "group labels or sizes differ from the reference tally"
        if doc["input"]["groups"] != len(expected["sizes"]):
            return f"decompose reports {doc['input']['groups']} groups"
        if doc["divergence"]["verdict"] != "DIVERGENT":
            return f"verdict {doc['divergence']['verdict']}, expected DIVERGENT"
        cov = doc["covariance"]
        scale = max(abs(expected["between"]), abs(expected["within"]), abs(expected["total"]))
        for name, got in (
            ("between + within", cov["between"] + cov["within"]),
            ("total", cov["total"]),
            ("between", cov["between"]),
            ("within", cov["within"]),
        ):
            ref = expected["total"] if name in ("between + within", "total") else expected[name]
            if not math.isclose(got, ref, rel_tol=0.0, abs_tol=COV_REL_TOL * scale):
                return f"{name} covariance {got!r} differs from the fsum reference {ref!r}"
    except (KeyError, TypeError) as exc:
        return f"decompose report lacks {exc}"
    return None

