"""Every subcommand at four configs reproduces the committed manifest.

A change that moves a number, an exit code or a printed line fails here;
it rewrites the manifest with ``tests/artifact_manifest.py`` and lists
what moved in CHANGES.md.
"""

import json

from artifact_manifest import MANIFEST, moved_cases, run_cases, versions


def test_every_case_matches_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    have, want = versions(), manifest["versions"]
    # float formatting and the transforms' rounding may differ between
    # versions; the manifest pins the pair it was written under
    assert have == want, (
        f"manifest written under Python {want['python']}, numpy {want['numpy']}; "
        f"this run has Python {have['python']}, numpy {have['numpy']}")
    moved = moved_cases(manifest["cases"], run_cases(tmp_path))
    assert not moved, "\n".join(moved)
