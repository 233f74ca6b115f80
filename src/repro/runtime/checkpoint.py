"""Fingerprint-keyed memoization and DAG-level checkpointing.

Each checkpointable operator's declared outputs are persisted under a
structural fingerprint, so a crashed run restarted against the same
store resumes at the first non-checkpointed node, and an unchanged node
re-run in-process is served from the in-memory memo without recomputing.
:class:`repro.pipeline.CheckpointedRun` keeps its partitions in a
:class:`GraphCheckpoint`, one node per partition.

Fingerprints are *structural*: a node's fingerprint hashes its graph name,
node name, explicit ``key`` salt, and its dependencies' fingerprints —
not artifact contents (artifacts can be multi-gigabyte tables; hashing
them would cost more than many operators).  Callers that need
content-sensitivity salt the node ``key`` (e.g. with a dataset name or
config repr), as ``CheckpointedRun`` salts its partitions with their
count.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

from repro.exceptions import WorkflowError
from repro.runtime.graph import Operator, OperatorGraph


def fingerprint(*parts: Any) -> str:
    """A stable hex digest of the given parts (repr-based, order-sensitive)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:32]


def node_fingerprints(graph: OperatorGraph) -> dict[str, str]:
    """Fingerprint every node: hash of (graph, name, key, dep fingerprints)."""
    fingerprints: dict[str, str] = {}
    for name in graph.topological_order():
        operator = graph.nodes[name]
        fingerprints[name] = fingerprint(
            graph.name,
            name,
            operator.key,
            tuple(fingerprints[dep] for dep in operator.deps),
        )
    return fingerprints


class NodeMemo:
    """In-memory fingerprint-keyed cache of node outputs.

    Shared across runs in one process: re-running an unchanged graph (or a
    graph sharing a prefix with an earlier one) serves the unchanged
    nodes' declared outputs from memory and emits ``cache_hit`` events.
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, fp: str) -> dict[str, Any] | None:
        entry = self._entries.get(fp)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(entry)

    def put(self, fp: str, outputs: dict[str, Any]) -> None:
        self._entries[fp] = dict(outputs)

    def __len__(self) -> int:
        return len(self._entries)


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write via a temp file in the same directory + ``os.replace``.

    A crash mid-write leaves the previous file intact instead of a
    truncated one — the property the resume path depends on.
    """
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (temp file + rename)."""
    atomic_write_bytes(Path(path), text.encode("utf-8"))


class GraphCheckpoint:
    """On-disk DAG-level checkpoint store for one logical run.

    Layout under ``directory/<run_id>/``: one pickle per checkpointed node
    (its declared outputs) plus ``manifest.json`` mapping node name to its
    fingerprint and artifact file.  Manifest writes are atomic, so a crash
    at any point leaves a loadable manifest; artifact pickles are written
    before the manifest references them, so a referenced file always
    exists and is complete.
    """

    def __init__(self, run_id: str, directory: str | Path):
        self.run_id = run_id
        self.directory = Path(directory) / run_id
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.directory / "manifest.json"

    # ------------------------------------------------------------------
    def _manifest(self) -> dict[str, Any]:
        if not self._manifest_path.exists():
            return {"run_id": self.run_id, "nodes": {}}
        manifest = json.loads(self._manifest_path.read_text(encoding="utf-8"))
        if not isinstance(manifest, dict) or not isinstance(manifest.get("nodes"), dict):
            raise WorkflowError(
                f"{self._manifest_path} is not a graph checkpoint manifest "
                f"(no 'nodes' table); move the directory aside or pick another run id"
            )
        return manifest

    def _save_manifest(self, manifest: dict[str, Any]) -> None:
        atomic_write_text(self._manifest_path, json.dumps(manifest, indent=2))

    def completed_nodes(self) -> set[str]:
        """Names of nodes with a checkpoint from a previous (or this) run."""
        return set(self._manifest()["nodes"])

    # ------------------------------------------------------------------
    def can_checkpoint(self, operator: Operator) -> bool:
        return operator.checkpoint and bool(operator.outputs)

    def has(self, name: str, fp: str) -> bool:
        """Is a checkpoint with this exact fingerprint available?"""
        entry = self._manifest()["nodes"].get(name)
        if entry is None or entry["fingerprint"] != fp:
            return False
        return (self.directory / entry["file"]).exists()

    def save(self, name: str, fp: str, outputs: dict[str, Any]) -> None:
        """Persist a node's declared outputs under its fingerprint."""
        file_name = f"node_{_slug(name)}.pkl"
        atomic_write_bytes(
            self.directory / file_name, pickle.dumps(outputs, protocol=pickle.HIGHEST_PROTOCOL)
        )
        manifest = self._manifest()
        manifest["nodes"][name] = {"fingerprint": fp, "file": file_name}
        self._save_manifest(manifest)

    def restore(self, name: str) -> dict[str, Any]:
        """Load a node's checkpointed outputs."""
        entry = self._manifest()["nodes"].get(name)
        if entry is None:
            raise WorkflowError(
                f"run {self.run_id!r} has no checkpoint for node {name!r}"
            )
        with (self.directory / entry["file"]).open("rb") as handle:
            return pickle.load(handle)

    def invalidate(self, name: str) -> None:
        """Drop one node's checkpoint (e.g. after its inputs changed)."""
        manifest = self._manifest()
        entry = manifest["nodes"].pop(name, None)
        if entry is not None:
            self._save_manifest(manifest)
            try:
                (self.directory / entry["file"]).unlink()
            except OSError:
                pass


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
