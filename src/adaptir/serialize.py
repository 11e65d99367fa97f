"""Checkpoint format shared by the host and all adapters.

Layout: one JSON header line (kind, config, ordered field names + shapes)
terminated by a newline, followed by the raw little-endian float32 data
of every field in declared order.  Bit-exact by construction, which is
what the determinism and freeze contracts hash.  A save refuses non-f32
arrays; a load rejects a malformed header, short data and trailing bytes.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .tensor import Tensor

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(path, kind: str, config: dict, params: dict[str, Tensor]) -> None:
    for k, v in params.items():
        if v.data.dtype != np.float32:
            raise ValueError(f"checkpoint field {k} is {v.data.dtype}, not float32")
    fields = [{"name": k, "shape": list(v.shape)} for k, v in params.items()]
    header = json.dumps({"kind": kind, "config": config, "fields": fields},
                        sort_keys=True)
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for v in params.values():
            f.write(np.ascontiguousarray(v.data, dtype="<f4").tobytes())


def _well_formed(header) -> bool:
    return (isinstance(header, dict) and isinstance(header.get("kind"), str)
            and isinstance(header.get("config"), dict)
            and isinstance(header.get("fields"), list)
            and all(isinstance(f, dict) and isinstance(f.get("name"), str)
                    and isinstance(f.get("shape"), list)
                    and all(type(n) is int and n >= 0 for n in f["shape"])
                    for f in header["fields"]))


def load_checkpoint(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode())
        if not _well_formed(header):
            raise ValueError("corrupt checkpoint: the header is not an object of kind,"
                             " config and fields (name, shape of non-negative ints)")
        # sizes in Python ints, checked before any read: no header outgrows its file
        left = os.fstat(f.fileno()).st_size - f.tell()
        for fld in header["fields"]:
            left -= 4 * math.prod(fld["shape"])
            if left < 0:
                raise ValueError(f"truncated checkpoint: field {fld['name']}")
        if left:
            raise ValueError("corrupt checkpoint: bytes after the last declared field")
        out = {}
        for fld in header["fields"]:
            # read straight into the field's array: one copy of the data
            arr = np.empty(fld["shape"], dtype="<f4")
            f.readinto(arr)
            out[fld["name"]] = arr.astype(np.float32, copy=False)
    return header["kind"], header["config"], out
