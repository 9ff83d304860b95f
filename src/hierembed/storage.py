"""File formats shared across the pipeline: text tables and binary blocks.

Text tables (``.tsv``) are UTF-8 with a tab between fields and ``"\n"``
after each row; no field holds a tab, line feed or carriage return, and
blank lines are skipped. ``write_tsv`` and ``read_tsv`` own this dialect.

- ``EMB1``: embedding table. Magic, little-endian u32 node count, u32
  dimension, u8 geometry tag, then f64 coordinates row-major. A sidecar
  TSV ``<path>.nodes.tsv`` maps ``node_id`` to row. A label file may end
  in an ``HDR1`` trailer with the cone constant ``k`` and ``squared``.
- ``FEAT``: instance features. Magic, u32 n, u32 D, f32 row-major, with a
  sidecar ``instances.tsv`` (``instance_id  row  leaf_label_id``).
- ``LMAP``: a dense real matrix (the learnable linear map). Magic, u32
  rows, u32 cols, f64 row-major.
- ``HDR1``: length-prefixed UTF-8 JSON trailer for run parameters.

A sidecar lists each row ``0..n-1`` once, in any order.
Joint models are a concatenation: EMB1 block, LMAP block, HDR1 block.
"""

from __future__ import annotations

import itertools
import json
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .geometry import KIND_TAGS, TAG_KINDS


class FormatError(ValueError):
    """Corrupt or mismatched file content."""


# Rows per write of a text table: blocks of 1024 wrote the 17 280-row instances.tsv
# faster than 4096, and a whole 51 840-row predictions.tsv raised peak RSS by 3 MB.
TSV_BLOCK = 1024


def write_tsv(path, rows: Iterable[Sequence[str]], header: Sequence[str] | None = None) -> None:
    """Write ``rows`` of str fields, after ``header`` if given, as a text table. A field
    holding a tab, line feed or carriage return, or a row that would be a blank line, is
    a ``FormatError`` naming the file and the field, and the file is removed."""
    rows = iter(rows) if header is None else itertools.chain([header], rows)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        while block := list(itertools.islice(rows, TSV_BLOCK)):
            text = "\n".join(map("\t".join, block)) + "\n"
            # A row of k > 0 fields adds k - 1 tabs and a line feed, a field holding
            # either adds more, and only a row of under 2 fields can be blank.
            lens = list(map(len, block))
            if (text.count("\t") + text.count("\n") != sum(lens) or "\r" in text
                    or min(lens) < 2 and (text[0] == "\n" or "\n\n" in text)):
                break
            f.write(text)
        else:
            return
    Path(path).unlink()
    for field in itertools.chain.from_iterable(block):
        if "\t" in field or "\n" in field or "\r" in field:
            raise FormatError(f"{path}: field {field!r} holds a tab, line feed or carriage return")
    raise FormatError(f"{path}: a row with no text would be read back as a blank line")


def read_tsv(path, width: int | None = None, header: Sequence[str] | None = None) -> list[list[str]]:
    """The text table at ``path``: with ``width``, its ``width`` columns, each a list of
    one field per row; without, its rows, each a list of fields. ``header``, when given,
    must be the first row and is left out. A row of another ``width`` or a wrong header
    is a ``FormatError`` naming the line."""
    lines = list(filter(None, Path(path).read_text(encoding="utf-8").split("\n")))
    if header is not None:
        expected = "\t".join(header)
        if lines[:1] != [expected]:
            raise row_error(path, 0, f"{(lines or [''])[0]!r} is not the header {expected!r}")
        del lines[0]
    if width is None:
        return [line.split("\t") for line in lines]
    tabs = list(map(str.count, lines, itertools.repeat("\t")))
    if tabs.count(width - 1) != len(tabs):
        i = next(i for i, t in enumerate(tabs) if t != width - 1)
        raise row_error(path, i + (header is not None), f"{tabs[i] + 1} fields, expected {width}")
    fields = "\t".join(lines).split("\t") if lines else []
    return [fields[c::width] for c in range(width)]


def row_error(path, index: int, problem: str, earlier: int | None = None) -> FormatError:
    """A ``FormatError`` naming ``path`` and the line of its ``index``-th
    non-blank line (from 0, a header included), after the line of its
    ``earlier``-th if given."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    numbers = [i for i, text in enumerate(lines, 1) if text] + [len(lines)]
    shown = [str(numbers[min(k, len(numbers) - 1)]) for k in (earlier, index) if k is not None]
    where = f"line {shown[0]}" if len(shown) == 1 else f"lines {shown[0]} and {shown[1]}"
    return FormatError(f"{path}, {where}: {problem}")


def int_column(path, column: Sequence[str], offset: int = 0) -> list[int]:
    """``column`` of the table at ``path``, ``offset`` rows (a header) below its top, as
    ints; a field that is not one is a ``FormatError`` naming its line."""
    ints = []
    for i, field in enumerate(column):
        try:
            ints.append(int(field))
        except ValueError:
            raise row_error(path, i + offset, f"{field!r} is not an integer") from None
    return ints


def _write_numbered(path, first: Sequence[str], *rest: Sequence[str]) -> None:
    """A sidecar table: the columns with the row number ``0..n-1`` second."""
    write_tsv(path, zip(first, map(str, range(len(first))), *rest))


def _read_numbered(path, width: int, n: int) -> list[tuple[str, ...]]:
    """The columns but the second of a sidecar table, in the row order that the second
    gives: each row number ``0..n-1`` exactly once."""
    cols = read_tsv(path, width)
    numbers = cols.pop(1)
    if numbers != list(map(str, range(n))):
        rows = int_column(path, numbers)
        if sorted(rows) != list(range(n)):
            raise FormatError(f"{path}: its {len(rows)} row numbers are not 0..{n - 1}, each once")
        order = sorted(range(n), key=rows.__getitem__)
        cols = [[col[i] for i in order] for col in cols]
    return [tuple(col) for col in cols]


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
    _write_numbered(sidecar_path(path), node_ids)


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
    node_ids = _read_numbered(sidecar_path(path), 2, coords.shape[0])[0]
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
        f.write(features.data)
    _write_numbered(Path(path).with_name("instances.tsv"), instance_ids, leaf_labels)


def load_features(path) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...]]:
    with open(path, "rb") as f:
        _expect_magic(f, b"FEAT")
        n, d = struct.unpack("<II", _read_exact(f, 8))
        features = np.frombuffer(_read_exact(f, 4 * n * d), dtype="<f4").reshape(n, d)
    ids, leaves = _read_numbered(Path(path).with_name("instances.tsv"), 3, n)
    return ids, features.astype(float), leaves


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
    _write_numbered(sidecar_path(path), node_ids)


def load_joint_model(path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, dict]:
    with open(path, "rb") as f:
        coords, kind = _read_emb_block(f)
        w = _read_lmap_block(f)
        header = _read_header_block(f)
    if header.get("geometry") != kind:
        raise FormatError("header geometry disagrees with the embedding block")
    node_ids = _read_numbered(sidecar_path(path), 2, coords.shape[0])[0]
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
