"""Byte identity of the sample configs: every ``docs/examples/*.cfg`` must
reproduce the sha256 of each artifact it writes (``metadata.json``,
``summary.json``, the CSVs, ``plan.txt``) as recorded in
``tests/data/example_digests.json``.

A change that is meant to alter artifact bytes regenerates the manifest with
``PYTHONPATH=src python tests/test_example_digests.py`` and says why.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from swarmctrl.cli import run_scenario

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "docs" / "examples").glob("*.cfg"))
MANIFEST = Path(__file__).resolve().parent / "data" / "example_digests.json"


def artifact_digests(config: Path, out_dir: Path) -> dict[str, str]:
    """Run one sample config and hash every file it writes."""
    assert run_scenario(config, out_dir=out_dir) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def test_manifest_covers_every_example():
    assert sorted(json.loads(MANIFEST.read_text())) == [p.stem for p in EXAMPLES]


@pytest.mark.parametrize("config", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_artifacts_match_digests(tmp_path, config):
    expected = json.loads(MANIFEST.read_text())[config.stem]
    assert artifact_digests(config, tmp_path / "out") == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {p.stem: artifact_digests(p, Path(tmp) / p.stem) for p in EXAMPLES}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
