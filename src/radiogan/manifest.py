"""Provenance manifests: one per artifact-producing command invocation."""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .kvfile import format_kv, read_kv, write_kv


@dataclass(frozen=True)
class RunManifest:
    """What produced the artifacts next to this file, and from which config."""

    command: str
    config_digest: str
    seed: int
    tool_version: str
    created_utc: str


def config_digest(resolved_config: dict) -> str:
    """SHA-256 over the canonical (sorted key=value) form of a resolved config."""
    canonical = format_kv(dict(sorted((str(k), str(v)) for k, v in resolved_config.items())))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path: str | Path, command: str, resolved_config: dict, seed: int) -> RunManifest:
    manifest = RunManifest(
        command=command,
        config_digest=config_digest(resolved_config),
        seed=int(seed),
        tool_version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
    )
    write_kv(path, asdict(manifest))
    return manifest


def read_manifest(path: str | Path) -> RunManifest:
    pairs = read_kv(path)
    return RunManifest(**{f.name: int(pairs[f.name]) if f.type == "int" else pairs[f.name]
                          for f in fields(RunManifest)})
