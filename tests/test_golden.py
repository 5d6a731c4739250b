"""Every CLI artifact, for approaches mr and hr, against ``tests/golden/digests.json``.

Re-bless with ``PYTHONPATH=src python tests/golden/digests.py --bless``, only
with a CHANGES.md entry naming the files that changed, why, and the largest
numeric difference.
"""

import json
import shutil

import pytest

from golden.digests import APPROACHES, GOLDEN, differences, environment_stamp, tree_digests


def test_artifacts_match_the_golden_digests(golden_runs, request):
    golden = json.loads(GOLDEN.read_text())
    stamp = environment_stamp()
    assert golden["environment"] == stamp, (
        f"the golden digests were made with {golden['environment']}, this environment has "
        f"{stamp}: digests from another environment do not apply here")
    roots, actual = golden_runs
    # the last run that matched is kept, so a mismatch can report numeric differences
    cache = getattr(request.config, "cache", None)
    kept = cache.mkdir("floodcal-golden-runs") if cache is not None else None
    if all(actual[a] == golden[a] for a in APPROACHES):
        if kept is not None:
            for approach, root in roots.items():
                shutil.rmtree(kept / approach, ignore_errors=True)
                shutil.copytree(root, kept / approach)
        return
    reference = None
    if kept is not None and all((kept / a).is_dir() and tree_digests(kept / a) == golden[a]
                                for a in APPROACHES):
        reference = {a: kept / a for a in APPROACHES}
    note = "" if reference else (
        "\n(no kept run matches the golden digests, so no numeric differences: run this test "
        "once on code that matches them)")
    pytest.fail("artifacts differ from the golden digests:\n"
                + "\n".join(differences(golden, actual, reference, roots)) + note)
