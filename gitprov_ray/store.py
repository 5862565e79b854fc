"""Graph-partitioned Parquet triple store.

Engine equivalent of the reference's Jena TDB named-graph store
(StoreService.java:28-80): a directory of ``graph=<name>/`` partitions, each
holding sorted deduplicated triple parquet plus a ``_MANIFEST.json`` lineage
record. Operations:

* :func:`write_store`  — S10 (``storeDocument``): write via a staging dir +
  atomic rename; replaces an existing named graph exactly like TDB
  ``addNamedModel`` (StoreService.java:38-44). Skips graphs whose manifest
  already validates when ``skip_existing`` (checkpoint-resume semantics).
* :func:`read_store`   — S11 (``getDocument``): partition-filtered read.
* :func:`list_graphs` / :func:`store_catalog` — S12 (``getStoredRepositories``,
  StoreService.java:61-80): list names, split, drop malformed (logged).
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import uuid

import pyarrow.dataset as pads

logger = logging.getLogger(__name__)

_PART_PREFIX = "gpart="
# a partition moved aside while its replacement is renamed into place
_REPLACED = ".replaced"


def _esc(graph: str) -> str:
    return graph.replace("/", "%2F")


def _unesc(part: str) -> str:
    return part.replace("%2F", "/")


def write_store(triples_ds, root: str, skip_existing: bool = False,
                fingerprint: str | None = None) -> dict:
    """Write a triples Dataset into the store, one partition per graph.

    The dataset is written to a staging directory first; each graph
    partition is then moved into place with an atomic rename (replacing any
    prior version of that graph — the reference's replace-on-store
    semantics). Returns {graph: rows} for the written partitions; an empty
    dataset writes nothing and returns {} (the store is left unchanged).
    """
    os.makedirs(root, exist_ok=True)
    recover_replaced(root)
    existing = set(list_graphs(root)) if skip_existing else set()

    staging = os.path.join(root, f".staging-{uuid.uuid4().hex[:8]}")
    try:
        # partition on a DUPLICATE of the graph column: hive partitioning
        # strips the partition column from the data files, and the triples
        # schema must keep `graph`
        withpart = triples_ds.map_batches(
            lambda t: t.append_column("gpart", t["graph"]),
            batch_format="pyarrow")
        withpart.write_parquet(staging, partition_cols=["gpart"],
                               compression="zstd")
        written: dict[str, int] = {}
        if not os.path.isdir(staging):  # empty dataset: no files written
            return written
        for entry in sorted(os.listdir(staging)):
            if not entry.startswith(_PART_PREFIX):
                continue
            graph = _unesc(entry[len(_PART_PREFIX):])
            src = os.path.join(staging, entry)
            if graph in existing:
                logger.info("store: skipping existing graph %s", graph)
                continue
            rows = pads.dataset(src).count_rows()
            _write_manifest(src, graph, rows, fingerprint)
            dst = os.path.join(root, entry)
            if os.path.exists(dst):
                bak = dst + _REPLACED
                os.rename(dst, bak)
                os.rename(src, dst)
                shutil.rmtree(bak)
            else:
                os.rename(src, dst)
            written[graph] = rows
        return written
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def recover_replaced(root: str) -> None:
    """Finish every replace under ``root`` that a crash (or a failed
    rmtree) interrupted: a leftover ``gpart=<g>.replaced`` is the old
    partition, so it is removed when ``gpart=<g>`` made it into place and
    restored when it did not. ``write_store`` runs it before it writes; a
    caller that reads partitions it is about to replace runs it first."""
    for entry in sorted(os.listdir(root)):
        if not (entry.startswith(_PART_PREFIX) and entry.endswith(_REPLACED)):
            continue
        bak = os.path.join(root, entry)
        dst = bak[:-len(_REPLACED)]
        if os.path.exists(dst):
            logger.warning("store: removing leftover %s", entry)
            shutil.rmtree(bak)
        else:
            logger.warning("store: restoring interrupted replace %s", entry)
            os.rename(bak, dst)


def _write_manifest(part_dir: str, graph: str, rows: int,
                    fingerprint: str | None) -> None:
    manifest = {
        "graph": graph,
        "rows": rows,
        "fingerprint": fingerprint,
        "files": sorted(f for f in os.listdir(part_dir) if f.endswith(".parquet")),
    }
    with open(os.path.join(part_dir, "_MANIFEST.json"), "w") as f:
        json.dump(manifest, f, sort_keys=True)


def read_manifest(root: str, graph: str) -> dict | None:
    p = os.path.join(root, _PART_PREFIX + _esc(graph), "_MANIFEST.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def partition_files(root: str, graphs) -> list[str]:
    """The data files of the named graph partitions, as their manifests
    list them; a partition without a manifest contributes none."""
    files = []
    for g in graphs:
        m = read_manifest(root, g)
        if m:
            part = os.path.join(root, _PART_PREFIX + _esc(g))
            files.extend(os.path.join(part, f) for f in m["files"])
    return files


def list_graphs(root: str) -> list[str]:
    """Graphs with a valid manifest whose row count matches the parquet.
    A partition left aside by an interrupted replace is not a graph."""
    out = []
    if not os.path.isdir(root):
        return out
    for entry in sorted(os.listdir(root)):
        if not entry.startswith(_PART_PREFIX) or entry.endswith(_REPLACED):
            continue
        graph = _unesc(entry[len(_PART_PREFIX):])
        m = read_manifest(root, graph)
        if m is None:
            continue
        part = os.path.join(root, entry)
        try:
            rows = pads.dataset(
                [os.path.join(part, f) for f in m["files"]]).count_rows()
        except Exception:
            continue
        if rows == m["rows"]:
            out.append(graph)
    return out


def read_store(root: str, graph: str | None = None, columns=None,
               predicate: str | None = None):
    """Partition-filtered Ray read of stored triples.

    ``columns`` prunes at the parquet read (a 2-column scan must not ship
    6 columns off storage); ``predicate`` pushes an equality filter on the
    triple's ``pred`` URI into the row-group scan."""
    files = partition_files(root, list_graphs(root) if graph is None
                            else [graph])
    if not files:
        raise FileNotFoundError(f"no stored graphs under {root!r} for {graph!r}")
    kwargs = {}
    if columns is not None:
        kwargs["columns"] = list(columns)
    if predicate is not None:
        kwargs["filter"] = pads.field("pred") == predicate
    from .util import read_parquet_clean

    return read_parquet_clean(files, **kwargs)


def store_catalog(root: str) -> list[tuple[str, str]]:
    """S12 analog: split each stored graph name on '.', keep well-formed
    (host, tld) pairs, drop malformed with a log line
    (StoreService.java:68-74 splits on '/' and drops len != 2)."""
    out = []
    for g in list_graphs(root):
        parts = g.split(".")
        if len(parts) == 2:
            out.append((parts[0], parts[1]))
        else:
            logger.warning("store catalog: malformed graph name %r", g)
    return out
