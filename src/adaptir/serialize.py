"""Checkpoint format shared by the host and all adapters.

Layout: one JSON header line (kind, config, ordered field names + shapes)
terminated by a newline, followed by the raw little-endian float32 data
of every field in declared order.  Bit-exact by construction, which is
what the determinism and freeze contracts hash.  A save refuses non-f32
arrays; a load rejects a header line longer than ``MAX_HEADER_BYTES``, a
header that is not UTF-8 JSON of the expected shape, a header that names a
field twice, short data, trailing bytes and a field holding NaN or infinity,
each in one ``ValueError`` line that names the file.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .tensor import Tensor

__all__ = ["save_checkpoint", "load_checkpoint", "MAX_HEADER_BYTES"]

# the longest header line a load reads, newline included; the default host's is 3.4 KB
MAX_HEADER_BYTES = 1 << 20


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
        line = f.readline(MAX_HEADER_BYTES)
        if not line.endswith(b"\n"):
            raise ValueError(f"{path}: corrupt checkpoint: no header line within"
                             f" {MAX_HEADER_BYTES} bytes")
        try:
            header = json.loads(line.decode())
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
            raise ValueError(f"{path}: corrupt checkpoint: the header is not UTF-8"
                             f" JSON ({exc})") from None
        if not _well_formed(header):
            raise ValueError(f"{path}: corrupt checkpoint: the header is not an object of"
                             " kind, config and fields (name, shape of non-negative ints)")
        # sizes in Python ints, checked before any read: no header outgrows its file
        left = os.fstat(f.fileno()).st_size - f.tell()
        names = set()
        for fld in header["fields"]:
            if fld["name"] in names:
                raise ValueError(f"{path}: corrupt checkpoint: field {fld['name']} is"
                                 " declared twice")
            names.add(fld["name"])
            left -= 4 * math.prod(fld["shape"])
            if left < 0:
                raise ValueError(f"{path}: truncated checkpoint: field {fld['name']}")
        if left:
            raise ValueError(f"{path}: corrupt checkpoint: bytes after the last declared"
                             " field")
        out = {}
        for fld in header["fields"]:
            # read straight into the field's array: one copy of the data
            arr = np.empty(fld["shape"], dtype="<f4")
            f.readinto(arr)
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: checkpoint field {fld['name']} holds NaN or"
                                 " infinity")
            out[fld["name"]] = arr.astype(np.float32, copy=False)
    return header["kind"], header["config"], out
