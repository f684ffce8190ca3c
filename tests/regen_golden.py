"""Regenerates the pinned golden report: python -m tests.regen_golden."""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_cli import _golden_scenario  # noqa: E402

from wadroid import ingest  # noqa: E402
from wadroid.correlator import analyze  # noqa: E402
from wadroid.report import build_report, render_report_json  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        result = _golden_scenario(Path(tmp))
        bundle = ingest.load_case_bundle(result.root)
        doc = build_report(bundle, analyze(bundle, "393400000001"), 60)
        doc["tool_version"] = "TEST"
        target = Path(__file__).parent / "data" / "golden_report.json"
        target.parent.mkdir(exist_ok=True)
        target.write_text(render_report_json(doc), encoding="utf-8")
        print(f"wrote {target}")


if __name__ == "__main__":
    main()
