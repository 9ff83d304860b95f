"""Converter for ETHEC-style metadata into the pipeline's TSV inputs.

The metadata is a JSON file mapping image tokens to records (or a list of
records) carrying the four taxonomy fields ``family``, ``subfamily``,
``genus``, and ``specific_epithet``. Because an epithet alone is not
unique, the deepest label combines genus and epithet. Node identity is
the full path key (``family/subfamily/genus/genus_epithet``) so duplicate
display names cannot collide.
"""

from __future__ import annotations

import json
from pathlib import Path

from .hierarchy import Hierarchy, Node
from .storage import read_tsv, write_tsv

LEVEL_FIELDS = ("family", "subfamily", "genus", "specific_epithet")


class EthecFormatError(ValueError):
    """Metadata records missing taxonomy fields."""


def _records(payload) -> list[tuple[str, dict]]:
    if isinstance(payload, dict):
        return sorted(payload.items())
    if isinstance(payload, list):
        out = []
        for i, rec in enumerate(payload):
            token = str(rec.get("image_name") or rec.get("token") or i)
            out.append((token, rec))
        return sorted(out)
    raise EthecFormatError("metadata must be a JSON object or array")


def convert_metadata(path) -> tuple[Hierarchy, list[tuple[str, list[str]]]]:
    """Parse metadata into a 4-level hierarchy plus per-instance label paths.

    Returns the hierarchy and ``(instance_id, [l1, l2, l3, l4])`` rows in
    deterministic (sorted token) order.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    nodes: dict[str, Node] = {}
    edges: set[tuple[str, str]] = set()
    instances: list[tuple[str, list[str]]] = []
    for token, rec in _records(payload):
        values = []
        for fld in LEVEL_FIELDS:
            val = rec.get(fld)
            if not val:
                raise EthecFormatError(f"record {token!r} missing field {fld!r}")
            values.append(str(val).strip())
        family, subfamily, genus, epithet = values
        names = [family, subfamily, genus, f"{genus} {epithet}"]
        path_ids = []
        for level in range(4):
            pid = "/".join(names[: level + 1]).replace(" ", "_")
            path_ids.append(pid)
            if pid not in nodes:
                nodes[pid] = Node(pid, level + 1, names[level])
            if level > 0:
                edges.add((path_ids[level - 1], pid))
        instances.append((token, path_ids))
    h = Hierarchy(
        sorted(nodes.values(), key=lambda n: n.node_id), sorted(edges)
    )
    return h, instances


def save_instance_levels(rows: list[tuple[str, list[str]]], path) -> None:
    """Write ``instance_id`` plus one label column per level."""
    write_tsv(path, ((iid, *labels) if labels else (iid, "") for iid, labels in rows))


def load_instance_levels(path) -> list[tuple[str, list[str]]]:
    return [(row[0], row[1:]) for row in read_tsv(path)]
