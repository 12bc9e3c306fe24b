"""The positivity report as the dict that ``json.dumps(..., indent=2)`` renders:
the reference for the bytes ``cipos positivity --format json`` streams.

The CLI joins each record from strings instead of running the encoder; these
dicts spell out the schema it must match, field by field and in order.
"""


def record_json(record) -> dict:
    """The JSON object of one ``schur.PartitionRecord``."""
    return {
        "partition": list(record.partition),
        "conjugate": list(record.conjugate),
        "dominant": record.dominant.to_json(),
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
