"""Reference dicts for the JSON reports: what ``json.dumps(..., indent=2)``
renders from them is the bytes the CLI must write.

``cipos.cli`` renders every payload through one function, ``_json``, and joins
each polynomial's terms from strings (``_json_terms``) instead of building a
dict per term; these dicts spell out the schema it must match, field by field
and in order: a polynomial's term list, and the ``positivity`` report with its
records.
"""


def terms_json(poly) -> list[dict]:
    """The JSON term list of a ``MultidegreePoly``: graded-lex order, each
    coefficient a string."""
    return [{"coeff": str(coeff), "exps": list(exps)} for exps, coeff in poly.sorted_terms()]


def record_json(record) -> dict:
    """The JSON object of one ``schur.PartitionRecord``."""
    return {
        "partition": list(record.partition),
        "conjugate": list(record.conjugate),
        "dominant": terms_json(record.dominant),
        "dominant_positive": True,
        "threshold": str(record.threshold),
    }


def report_json(report) -> dict:
    """The whole JSON document of one ``schur.SchurReport``."""
    return {
        "N": report.params.N,
        "n": report.params.n,
        "c": report.params.c,
        "a": report.a,
        "records": [record_json(r) for r in report.records],
        "D": str(report.threshold),
    }
