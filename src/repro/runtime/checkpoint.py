"""The partition store of the production stage, and its atomic writes.

:class:`repro.pipeline.CheckpointedRun` keeps each finished partition
in a :class:`GraphCheckpoint`, one node ``part_<i>`` per partition, so a
crashed run restarted against the same directory computes only the
partitions that never finished.

A node's entry is keyed by a :func:`fingerprint` of its structure, not
of artifact contents (artifacts can be multi-gigabyte tables; hashing
them would cost more than many partitions).  ``CheckpointedRun`` salts
it with the run id and the partition count, so a directory written with
another partitioning is refused rather than mixed in.
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


def fingerprint(*parts: Any) -> str:
    """A stable hex digest of the given parts (repr-based, order-sensitive)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:32]


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


class GraphCheckpoint:
    """On-disk checkpoint store for one logical run.

    Layout under ``directory/<run_id>/``: one pickle per saved node (the
    outputs it was given) plus ``manifest.json`` mapping node name to its
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
        atomic_write_bytes(self._manifest_path, json.dumps(manifest, indent=2).encode("utf-8"))

    def completed_nodes(self) -> set[str]:
        """Names of nodes with a checkpoint from a previous (or this) run."""
        return set(self._manifest()["nodes"])

    # ------------------------------------------------------------------
    def has(self, name: str, fp: str) -> bool:
        """Is a checkpoint with this exact fingerprint available?"""
        entry = self._manifest()["nodes"].get(name)
        if entry is None or entry["fingerprint"] != fp:
            return False
        return (self.directory / entry["file"]).exists()

    def save(self, name: str, fp: str, outputs: dict[str, Any]) -> None:
        """Persist a node's outputs under its fingerprint."""
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


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
