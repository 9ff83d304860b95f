"""File formats shared across the pipeline: text tables and binary blocks.

Text tables (``.tsv``) are UTF-8 with a tab between fields and ``"\n"``
after each row; no field holds a tab, line feed or carriage return, and
blank lines are skipped. ``write_tsv`` and ``read_tsv`` own this dialect.

A binary file is a sequence of blocks: a four-byte magic, little-endian
fields, a payload. ``EMB1``: u32 rows, u32 dimension, u8 geometry tag, f64
coordinates. ``LMAP``: u32 rows, u32 cols, f64 entries. ``FEAT``: u32 rows,
u32 width, f32 features. ``HDR1``: u32 length, a UTF-8 JSON object. Arrays
are row-major. Each kind of file is one layout, its magics in order:

- label file: ``EMB1``, or ``EMB1 HDR1`` with ``k`` and ``squared``;
- joint model: ``EMB1 LMAP HDR1``, labels, linear map and run parameters;
- classifier: ``LMAP LMAP HDR1``, weights, bias as one row and head parameters;
- features: ``FEAT``.

``_read_blocks`` reads them all: a file that does not spell a layout its
caller accepts, cut short or with bytes after it, is a ``FormatError``
naming the file. Models have a sidecar ``<path>.nodes.tsv`` (``node_id
row``), features an ``instances.tsv`` beside them (``instance_id  row
leaf_label_id``); a sidecar lists each row ``0..n-1`` once, in any order.
Writers write the sidecar first, so that a refused id leaves neither file.
"""

from __future__ import annotations

import itertools
import json
import struct
from pathlib import Path
from typing import Iterable, Sequence

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


def _write_numbered(path, n: int, first: Sequence[str], *rest: Sequence[str]) -> None:
    """The sidecar table of a binary file's ``n`` rows: the columns, each of ``n``
    entries, with the row number ``0..n-1`` second."""
    lengths = [len(column) for column in (first, *rest)]
    if lengths.count(n) != len(lengths):
        raise FormatError(f"{path}: columns of {lengths} entries for {n} rows")
    write_tsv(path, zip(first, map(str, range(n)), *rest))


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


def sidecar_path(path) -> Path:
    return Path(str(path) + ".nodes.tsv")


def _spell(magics: bytes) -> str:
    """``magics`` four bytes at a time, such as ``EMB1 HDR1``."""
    return " ".join(repr(magics[i:i + 4])[2:-1] for i in range(0, len(magics), 4)) or "nothing"


def _read_blocks(path, *layouts: bytes) -> list:
    """The blocks of the binary file at ``path`` in order: ``EMB1`` as ``(coords,
    geometry)``, ``LMAP`` and ``FEAT`` as read-only matrices over the bytes read,
    ``HDR1`` as a dict. Their magics must spell one of ``layouts`` (such as
    ``b"EMB1HDR1"``) and end the file; anything else is a ``FormatError`` naming the
    file and what it holds."""
    blocks, held = [], b""
    with open(path, "rb") as f:
        size = Path(path).stat().st_size

        def take(n: int, magic: bytes) -> bytes:
            if n > size - f.tell():
                raise FormatError(f"{path}: its {magic.decode()} block is cut short: "
                                  f"{n} bytes wanted, {size - f.tell()} left")
            return f.read(n)

        while f.tell() < size:
            magic = f.read(4)
            held += magic
            if len(magic) < 4 or not any(layout.startswith(held) for layout in layouts):
                break
            if magic == b"HDR1":
                (length,) = struct.unpack("<I", take(4, magic))
                payload = take(length, magic)
                try:
                    header = json.loads(payload)
                except ValueError:
                    header = None
                if not isinstance(header, dict):
                    raise FormatError(f"{path}: its HDR1 block does not hold a JSON object")
                blocks.append(header)
            else:
                fields = "<IIB" if magic == b"EMB1" else "<II"
                rows, cols, *tag = struct.unpack(fields, take(struct.calcsize(fields), magic))
                if tag and tag[0] not in TAG_KINDS:
                    raise FormatError(f"{path}: unknown geometry tag {tag[0]}")
                dtype = np.dtype("<f4" if magic == b"FEAT" else "<f8")
                data = take(rows * cols * dtype.itemsize, magic)
                matrix = np.frombuffer(data, dtype).reshape(rows, cols)
                blocks.append((matrix, TAG_KINDS[tag[0]]) if tag else matrix)
    if held not in layouts:
        expected = " or ".join(map(_spell, layouts))
        raise FormatError(f"{path}: found {_spell(held)}, expected {expected}")
    return blocks


def _matrix(magic: bytes, matrix: np.ndarray, dtype: str = "<f8", kind: str | None = None):
    """The parts of a matrix block: magic, u32 rows, u32 columns, the u8 tag of
    geometry ``kind`` (``EMB1`` only) and the entries row-major."""
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype=dtype)
    tag = b"" if kind is None else bytes([KIND_TAGS[kind]])
    return magic, struct.pack("<II", *matrix.shape) + tag, matrix


def _header(header: dict):
    """The parts of an ``HDR1`` block."""
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"HDR1", struct.pack("<I", len(payload)), payload


def _write_blocks(path, *blocks) -> None:
    """Write the parts of ``blocks`` to ``path``, each array straight from its buffer."""
    with open(path, "wb") as f:
        for part in itertools.chain.from_iterable(blocks):
            f.write(part)


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
    stored = {key: val for key, val in (("k", k), ("squared", squared)) if val is not None}
    blocks = [_matrix(b"EMB1", coords, kind=kind)]
    if stored:
        blocks.append(_header({"geometry": kind, **stored}))
    _write_numbered(sidecar_path(path), len(coords), node_ids)
    _write_blocks(path, *blocks)


def load_model(path) -> tuple[tuple[str, ...], np.ndarray, str, np.ndarray | None, dict]:
    """A joint model or a label file: ids, coordinates, geometry, the linear map (None
    for a label file) and the header (``{}`` for a label file without a trailer)."""
    (coords, kind), *rest = _read_blocks(path, b"EMB1", b"EMB1HDR1", b"EMB1LMAPHDR1")
    header = rest[-1] if rest else {}  # rest: [], [header] or [w, header]
    if rest and header.get("geometry") != kind:
        raise FormatError(f"{path}: its header geometry {header.get('geometry')!r} "
                          f"disagrees with its EMB1 block's {kind!r}")
    node_ids = _read_numbered(sidecar_path(path), 2, coords.shape[0])[0]
    w = rest[0].astype(float) if len(rest) == 2 else None
    return node_ids, coords.astype(float), kind, w, header


def save_features(
    path, instance_ids: Sequence[str], features: np.ndarray, leaf_labels: Sequence[str]
) -> None:
    block = _matrix(b"FEAT", features, "<f4")
    _write_numbered(Path(path).with_name("instances.tsv"), len(features), instance_ids, leaf_labels)
    _write_blocks(path, block)


def load_features(path) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...]]:
    (features,) = _read_blocks(path, b"FEAT")
    ids, leaves = _read_numbered(Path(path).with_name("instances.tsv"), 3, features.shape[0])
    # converted after the sidecar is read: converting first raised eval-wide peak RSS
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
    blocks = (_matrix(b"EMB1", coords, kind=kind), _matrix(b"LMAP", w), _header(header))
    _write_numbered(sidecar_path(path), len(coords), node_ids)
    _write_blocks(path, *blocks)


def save_linear_classifier(path, w: np.ndarray, bias: np.ndarray, header: dict) -> None:
    _write_blocks(path, _matrix(b"LMAP", w), _matrix(b"LMAP", bias), _header(header))


def load_linear_classifier(path) -> tuple[np.ndarray, np.ndarray, dict]:
    w, bias, header = _read_blocks(path, b"LMAPLMAPHDR1")
    return w.astype(float), bias[0].astype(float), header
