"""Checkpoint format shared by the host and all adapters.

Layout: one JSON header line (kind, config, ordered field names + shapes)
terminated by a newline, followed by the raw little-endian float32 data
of every field in declared order.  Bit-exact by construction, which is
what the determinism and freeze contracts hash.  A load rejects short
data and bytes after the last declared field.
"""

from __future__ import annotations

import json

import numpy as np

from .tensor import Tensor

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(path, kind: str, config: dict, params: dict[str, Tensor]) -> None:
    fields = [{"name": k, "shape": list(v.shape)} for k, v in params.items()]
    header = json.dumps({"kind": kind, "config": config, "fields": fields},
                        sort_keys=True)
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for v in params.values():
            f.write(np.ascontiguousarray(v.data, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode())
        out: dict[str, np.ndarray] = {}
        for fld in header["fields"]:
            shape = tuple(fld["shape"])
            n = int(np.prod(shape)) if shape else 1
            buf = f.read(4 * n)
            if len(buf) != 4 * n:
                raise ValueError(f"truncated checkpoint: field {fld['name']}")
            out[fld["name"]] = np.frombuffer(buf, dtype="<f4").reshape(shape).astype(np.float32)
        if f.read(1):
            raise ValueError("corrupt checkpoint: bytes after the last declared field")
    return header["kind"], header["config"], out
