"""Reading a report back from its JSON text, for the tests that compare
reports or check that serialization is lossless."""

import json

from pbhverify.report import CheckRecord, VerificationReport


def _is_decimal(v) -> bool:
    if not isinstance(v, str):
        return False
    try:
        float(v)
        return True
    except ValueError:
        return False


def record_from_doc(doc: dict) -> CheckRecord:
    """The check of one ``CheckRecord.to_doc`` entry; an ``extra`` value
    written as a decimal string is read as a float."""
    extra = {k: float(v) if _is_decimal(v) else v for k, v in doc.get("extra", {}).items()}
    return CheckRecord(doc["name"], doc["reference"], float(doc["residual"]),
                       float(doc["tolerance"]), int(doc["points"]),
                       bool(doc["passed"]), int(doc.get("inconclusive", 0)), extra)


def report_from_json(text: str) -> VerificationReport:
    """The report that ``VerificationReport.to_json`` wrote as ``text``."""
    doc = json.loads(text)
    return VerificationReport(doc["suite"], doc["model"], dict(doc["config"]),
                              [record_from_doc(c) for c in doc["checks"]],
                              float(doc["wall_time_s"]))
