"""Golden reports: ``verify --no-timing --json`` on the scene files in
``tests/data`` must reproduce the stored reports.

The ``*.report.json`` files were written by ``parageom verify <scene>
--no-timing --json <report>`` before the battery bodies switched to raw
residuals, so any change to how a verdict is reached shows up here.  Exit
codes, statuses, skip reasons and vacuous lists must match exactly; floats
within 1e-13 absolute or 1e-12 relative.  Regenerate a report only for a
deliberate change of its contents, and say why in the commit.
"""

import json
import math
from pathlib import Path

import pytest

from parageom.cli import main

DATA = Path(__file__).parent / "data"

# scene file stem -> exit code of the run that wrote its report
GOLDEN = {"hyperbola": 0, "quadric_n1": 0, "perturbed_n1": 1, "graph_n1": 1}


def assert_same(got, want, where="$"):
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_report_matches_golden(tmp_path, capsys, stem):
    report_path = tmp_path / "report.json"
    code = main(["verify", str(DATA / f"{stem}.json"), "--no-timing", "--json", str(report_path)])
    capsys.readouterr()
    assert code == GOLDEN[stem]
    got = json.loads(report_path.read_text(encoding="utf-8"))
    want = json.loads((DATA / f"{stem}.report.json").read_text(encoding="utf-8"))
    assert_same(got, want)


def test_golden_reports_cover_every_status():
    statuses = set()
    for stem in GOLDEN:
        report = json.loads((DATA / f"{stem}.report.json").read_text(encoding="utf-8"))
        statuses.update(s["status"] for s in report["suites"].values())
    assert statuses == {"passed", "failed", "skipped", "vacuous"}
