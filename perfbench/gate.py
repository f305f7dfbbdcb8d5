"""The correctness gate: exit codes, validator verdicts, known answers, and
artifact hashes that must repeat between runs of the same code."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from workloads import Instance

EXIT_OK, EXIT_BUDGET = 0, 3


def instance_failures(
    inst: Instance, code: int, artifact: bytes | None, verdict_code: int, verdict: str
) -> tuple[list[str], list[str], dict | None]:
    """Failures of one producing command and of the validate run after it,
    and the parsed artifact.

    The producing command must exit 0, or 3 when it is budgeted; a
    budgeted run that exits 0 must claim an optimal answer. Its artifact
    must pass the instance's known-answer check. `validate` must exit 0
    and print "ok: <kind>".
    """
    produce: list[str] = []
    cert = None
    allowed = (EXIT_OK, EXIT_BUDGET) if inst.budgeted else (EXIT_OK,)
    if code not in allowed:
        produce.append(f"exit code {code}, expected one of {allowed}")
    if artifact is None:
        produce.append("no artifact written")
    else:
        try:
            cert = json.loads(artifact)
            if cert.get("kind") != inst.kind:
                produce.append(f"artifact kind {cert.get('kind')!r}, expected {inst.kind!r}")
            else:
                produce += inst.check(cert)
                if inst.budgeted and code == EXIT_OK and cert.get("optimal") is not True:
                    produce.append("exit 0 on a budgeted run without an optimal answer")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            produce.append(f"malformed artifact: {exc!r}")
    validate: list[str] = []
    if verdict_code != EXIT_OK or verdict.strip() != f"ok: {inst.kind}":
        validate.append(f"validate exit {verdict_code}: {verdict.strip()[:200]!r}")
    return produce, validate, cert


def code_digest(src: Path) -> str:
    """sha256 over the program's source files, naming the code under test."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class HashRecord:
    """sha256 of every artifact, kept per (code, workload, seed) across runs.

    The first time an artifact is seen its hash is stored; every later
    sighting, in this run or a later one of the same code, must match.
    """

    def __init__(self, path: Path):
        self.path = path
        self.hashes: dict[str, str] = json.loads(path.read_text()) if path.exists() else {}

    def check(self, name: str, data: bytes) -> str | None:
        digest = hashlib.sha256(data).hexdigest()
        known = self.hashes.setdefault(name, digest)
        if known != digest:
            return f"{name}: sha256 {digest[:12]} differs from {known[:12]} of an earlier run"
        return None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.hashes, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


class Gate:
    """Counts commands attempted and failed; returns each passing artifact."""

    def __init__(self, record: HashRecord):
        self.record = record
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def instance(self, inst, code, artifact: Path, verdict_code, verdict) -> dict | None:
        data = artifact.read_bytes() if artifact.exists() else None
        produce, validate, cert = instance_failures(inst, code, data, verdict_code, verdict)
        if data is not None and (mismatch := self.record.check(inst.name, data)):
            produce.append(mismatch)
        self.attempted += 2
        self.failed += bool(produce) + bool(validate)
        self.failures += [f"{inst.name}: {f}" for f in produce + validate]
        return None if produce else cert
