"""Packaging helpers: build and version function workspaces.

A deployable workspace is one directory holding the handler module plus the
materialized synthetic libraries (mirroring the paper's zip packages that
bundle source and dependencies).  Optimization never mutates a deployed
workspace in place — it clones the workspace, rewrites the clone, and
redeploys, which models the CI/CD flow of Fig. 4 and keeps the unoptimized
baseline intact for comparison.  The virtual-time back ends follow the
same discipline without files: ``SimPlatform.redeploy`` and
``ClusterPlatform.redeploy`` swap in a freshly compiled (config, plan)
state and retire every warm container, i.e. a new function version.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.common.errors import DeploymentError
from repro.faas.container import HANDLER_MODULE
from repro.synthlib.generator import materialize_ecosystem
from repro.synthlib.spec import Ecosystem


def build_workspace(
    ecosystem: Ecosystem,
    handler_source: str,
    dest: str | Path,
    scale: float = 1.0,
) -> Path:
    """Materialize libraries and write the handler; returns the workspace."""
    workspace = Path(dest)
    materialize_ecosystem(ecosystem, workspace, scale=scale)
    (workspace / f"{HANDLER_MODULE}.py").write_text(handler_source)
    return workspace


def clone_workspace(source: str | Path, dest: str | Path) -> Path:
    """Copy a workspace for rewriting (the 'new function version')."""
    source_path = Path(source)
    dest_path = Path(dest)
    if not source_path.is_dir():
        raise DeploymentError(f"workspace does not exist: {source_path}")
    if dest_path.exists():
        raise DeploymentError(f"destination already exists: {dest_path}")
    try:
        shutil.copytree(source_path, dest_path)
    except OSError as error:
        raise DeploymentError(
            f"cannot write workspace {dest_path}: {error.strerror or error}"
        ) from error
    return dest_path


def read_handler(workspace: str | Path) -> str:
    """Read the handler source from a workspace."""
    path = Path(workspace) / f"{HANDLER_MODULE}.py"
    if not path.parent.is_dir():
        raise DeploymentError(f"workspace does not exist: {path.parent}")
    if not path.is_file():
        raise DeploymentError(f"no handler module at {path}")
    return path.read_text()


def write_handler(workspace: str | Path, source: str) -> Path:
    """Overwrite the handler source in a workspace (post-optimization)."""
    path = Path(workspace) / f"{HANDLER_MODULE}.py"
    path.write_text(source)
    # Drop any stale bytecode so the rewritten source is what executes.
    cache_dir = path.parent / "__pycache__"
    if cache_dir.is_dir():
        for stale in cache_dir.glob(f"{HANDLER_MODULE}.*.pyc"):
            stale.unlink()
    return path
