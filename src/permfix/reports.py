"""Machine-readable report serialization.

Reports are versioned JSON documents. Exact rationals survive as
num/den string pairs, high-precision reals as decimal strings whose
length matches the declared precision, and partitions as plain lists.
CSV output covers the tabular section of a report losslessly by using
the same string forms.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
from fractions import Fraction

import mpmath

SCHEMA_VERSION = 2


def _decimal_digits(precision_bits: int) -> int:
    return max(1, int(precision_bits * 0.30103)) + 2


def encode(obj, precision_bits: int = 128):
    """Recursively convert a value into JSON-safe structures."""
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, mpmath.mpf):
        return mpmath.nstr(obj, _decimal_digits(precision_bits))
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, bool) or isinstance(obj, int) or obj is None:
        return obj
    if isinstance(obj, str):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: encode(getattr(obj, f.name), precision_bits)
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(encode_key(k)): encode(v, precision_bits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v, precision_bits) for v in obj]
    raise TypeError(f"cannot encode {type(obj)!r}")


def encode_key(key) -> str:
    if isinstance(key, tuple):
        return ",".join(str(v) for v in key)
    return str(key)


def build_report(command: str, config: dict, body: dict, precision_bits: int = 128) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": encode(config, precision_bits),
        **{k: encode(v, precision_bits) for k, v in body.items()},
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def to_csv(report: dict, table_key: str = "table") -> str:
    """CSV of the report's tabular section; falls back to key/value pairs."""
    buffer = io.StringIO()
    table = report.get(table_key)
    if isinstance(table, list) and table and isinstance(table[0], dict):
        writer = csv.DictWriter(buffer, fieldnames=list(table[0].keys()))
        writer.writeheader()
        for row in table:
            writer.writerow({k: _cell(v) for k, v in row.items()})
    else:
        writer = csv.writer(buffer)
        writer.writerow(["key", "value"])
        for key, value in report.items():
            if key in ("schema_version", "command", "config"):
                continue
            writer.writerow([key, _cell(value)])
    return buffer.getvalue()


def _cell(value) -> str:
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return f"{value['num']}/{value['den']}"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)
