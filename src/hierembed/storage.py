"""Binary file formats shared across the pipeline.

- ``EMB1``: embedding table. Magic, little-endian u32 node count, u32
  dimension, u8 geometry tag, then f64 coordinates row-major. A sidecar
  TSV ``<path>.nodes.tsv`` maps ``node_id`` to row. A label file may end
  in an ``HDR1`` trailer with the cone constant ``k`` and ``squared``.
- ``FEAT``: instance features. Magic, u32 n, u32 D, f32 row-major, with a
  sidecar ``instances.tsv`` (``instance_id  row  leaf_label_id``).
- ``LMAP``: a dense real matrix (the learnable linear map). Magic, u32
  rows, u32 cols, f64 row-major.
- ``HDR1``: length-prefixed UTF-8 JSON trailer for run parameters.

Joint models are a concatenation: EMB1 block, LMAP block, HDR1 block.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .geometry import KIND_TAGS, TAG_KINDS


class FormatError(ValueError):
    """Corrupt or mismatched binary payload."""


def _read_exact(f: BinaryIO, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file: wanted {n} bytes, got {len(data)}")
    return data


def _expect_magic(f: BinaryIO, magic: bytes) -> None:
    got = _read_exact(f, len(magic))
    if got != magic:
        raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")


def sidecar_path(path) -> Path:
    return Path(str(path) + ".nodes.tsv")


def _write_emb_block(f: BinaryIO, coords: np.ndarray, kind: str) -> None:
    coords = np.ascontiguousarray(coords, dtype="<f8")
    n, dim = coords.shape
    f.write(b"EMB1")
    f.write(struct.pack("<IIB", n, dim, KIND_TAGS[kind]))
    f.write(coords.tobytes())


def _read_emb_block(f: BinaryIO) -> tuple[np.ndarray, str]:
    _expect_magic(f, b"EMB1")
    n, dim, tag = struct.unpack("<IIB", _read_exact(f, 9))
    if tag not in TAG_KINDS:
        raise FormatError(f"unknown geometry tag {tag}")
    coords = np.frombuffer(_read_exact(f, 8 * n * dim), dtype="<f8").reshape(n, dim)
    return coords.astype(float), TAG_KINDS[tag]


def _write_lmap_block(f: BinaryIO, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype="<f8")
    rows, cols = matrix.shape
    f.write(b"LMAP")
    f.write(struct.pack("<II", rows, cols))
    f.write(matrix.tobytes())


def _read_lmap_block(f: BinaryIO) -> np.ndarray:
    _expect_magic(f, b"LMAP")
    rows, cols = struct.unpack("<II", _read_exact(f, 8))
    data = np.frombuffer(_read_exact(f, 8 * rows * cols), dtype="<f8")
    return data.reshape(rows, cols).astype(float)


def _write_header_block(f: BinaryIO, header: dict) -> None:
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    f.write(b"HDR1")
    f.write(struct.pack("<I", len(payload)))
    f.write(payload)


def _read_header_block(f: BinaryIO) -> dict:
    _expect_magic(f, b"HDR1")
    (length,) = struct.unpack("<I", _read_exact(f, 4))
    return json.loads(_read_exact(f, length).decode("utf-8"))


def _write_sidecar(path, node_ids: Sequence[str]) -> None:
    with open(sidecar_path(path), "w", encoding="utf-8", newline="\n") as f:
        for row, node_id in enumerate(node_ids):
            f.write(f"{node_id}\t{row}\n")


def _read_sidecar(path, n: int) -> tuple[str, ...]:
    ids: list[str] = [""] * n
    for line in sidecar_path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        node_id, row = line.split("\t")
        ids[int(row)] = node_id
    if any(i == "" for i in ids):
        raise FormatError("sidecar does not cover every embedding row")
    return tuple(ids)


def save_embeddings(
    path,
    node_ids: Sequence[str],
    coords: np.ndarray,
    kind: str,
    *,
    k: float | None = None,
    squared: bool | None = None,
) -> None:
    """Write a label file; ``k`` and ``squared``, when given, go into an HDR1 trailer."""
    if len(node_ids) != coords.shape[0]:
        raise FormatError("node id count does not match coordinate rows")
    stored = {key: val for key, val in (("k", k), ("squared", squared)) if val is not None}
    with open(path, "wb") as f:
        _write_emb_block(f, coords, kind)
        if stored:
            _write_header_block(f, {"geometry": kind, **stored})
    _write_sidecar(path, node_ids)


def load_embeddings(path) -> tuple[tuple[str, ...], np.ndarray, str]:
    return load_embeddings_with_header(path)[:3]


def load_embeddings_with_header(path) -> tuple[tuple[str, ...], np.ndarray, str, dict]:
    """Label file and its trailer; ``{}`` when the EMB1 block is not followed by one."""
    with open(path, "rb") as f:
        coords, kind = _read_emb_block(f)
        end = f.tell()
        header = {}
        if f.read(4) == b"HDR1":
            f.seek(end)
            header = _read_header_block(f)
    if header.get("geometry", kind) != kind:
        raise FormatError("header geometry disagrees with the embedding block")
    node_ids = _read_sidecar(path, coords.shape[0])
    return node_ids, coords, kind, header


def save_features(
    path, instance_ids: Sequence[str], features: np.ndarray, leaf_labels: Sequence[str]
) -> None:
    features = np.ascontiguousarray(features, dtype="<f4")
    n, d = features.shape
    if len(instance_ids) != n or len(leaf_labels) != n:
        raise FormatError("instance ids / leaf labels do not match feature rows")
    with open(path, "wb") as f:
        f.write(b"FEAT")
        f.write(struct.pack("<II", n, d))
        f.write(features.tobytes())
    side = Path(path).with_name("instances.tsv")
    with open(side, "w", encoding="utf-8", newline="\n") as f:
        rows = zip(instance_ids, range(n), leaf_labels)
        f.write("".join([f"{iid}\t{row}\t{leaf}\n" for iid, row, leaf in rows]))


def load_features(path) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...]]:
    with open(path, "rb") as f:
        _expect_magic(f, b"FEAT")
        n, d = struct.unpack("<II", _read_exact(f, 8))
        features = np.frombuffer(_read_exact(f, 4 * n * d), dtype="<f4").reshape(n, d)
    ids: list[str] = [""] * n
    leaves: list[str] = [""] * n
    side = Path(path).with_name("instances.tsv")
    for line in side.read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        iid, row, leaf = line.split("\t")
        ids[int(row)] = iid
        leaves[int(row)] = leaf
    if any(i == "" for i in ids):
        raise FormatError("instances.tsv does not cover every feature row")
    return tuple(ids), features.astype(float), tuple(leaves)


def save_joint_model(
    path,
    node_ids: Sequence[str],
    coords: np.ndarray,
    w: np.ndarray,
    header: dict,
) -> None:
    kind = header.get("geometry")
    if kind not in KIND_TAGS:
        raise FormatError("header must carry a valid 'geometry' entry")
    with open(path, "wb") as f:
        _write_emb_block(f, coords, kind)
        _write_lmap_block(f, w)
        _write_header_block(f, header)
    _write_sidecar(path, node_ids)


def load_joint_model(path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, dict]:
    with open(path, "rb") as f:
        coords, kind = _read_emb_block(f)
        w = _read_lmap_block(f)
        header = _read_header_block(f)
    if header.get("geometry") != kind:
        raise FormatError("header geometry disagrees with the embedding block")
    node_ids = _read_sidecar(path, coords.shape[0])
    return node_ids, coords, w, header


def save_linear_classifier(path, w: np.ndarray, bias: np.ndarray, header: dict) -> None:
    with open(path, "wb") as f:
        _write_lmap_block(f, w)
        _write_lmap_block(f, bias[None, :])
        _write_header_block(f, header)


def load_linear_classifier(path) -> tuple[np.ndarray, np.ndarray, dict]:
    with open(path, "rb") as f:
        w = _read_lmap_block(f)
        bias = _read_lmap_block(f)[0]
        header = _read_header_block(f)
    return w, bias, header
