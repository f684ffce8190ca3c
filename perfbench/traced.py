"""Run one wadroid CLI command with spans around the calls into each module.

    python3 perfbench/traced.py TRACE_OUT -- <wadroid arguments>

The wadroid package is imported (and the import timed), then the
module-level public functions that ``cli``, ``ingest`` and ``analyze``
call are replaced, in this process only, by wrappers that record a span
(name, start, end, parent) and a few counts taken from their arguments
and results. The command runs through ``wadroid.cli.run``; the spans
stay in memory and are written to TRACE_OUT as JSON when it has
finished, together with the per-layer numbers derived from them. The
exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

ANALYZE_STEPS = (
    "reconstruct_history",
    "group_membership_timeline",
    "resolve_partners",
    "contact_added_findings",
    "infer_block_status",
    "infer_deleted_contacts",
    "infer_deleted_messages",
    "correlate_media",
    "identity_check",
    "sort_findings",
)

# Functions whose calls become spans, by module.
SPANNED = {
    "ingest": ("load_case_bundle",),
    "db_reader": (
        "open_source",
        "load_contacts",
        "load_messages",
        "load_chat_list",
        "check_chat_list_consistency",
    ),
    "backup_crypto": ("decrypt_backup",),
    "log_parser": ("parse_log_file", "merge_events"),
    "correlator": ("analyze", *ANALYZE_STEPS, "backup_recovered_records", "backup_diff"),
    "report": ("build_report", "render_report_json", "timeline_rows", "render_timeline_csv"),
}

_DB_LOADS = ("db_reader.load_contacts", "db_reader.load_messages", "db_reader.load_chat_list")


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self, evidence_root: Path):
        self.evidence_root = evidence_root.resolve()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.parse_jid_calls = 0
        self.parse_jid_args: set[str] = set()
        self.coverage_scans = 0
        self.bundles: list = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self._count(span, args, result)
            return result

        return traced

    def _is_live(self, path) -> bool:
        return Path(path).resolve().is_relative_to(self.evidence_root)

    def _count(self, span: dict, args, result) -> None:
        """Counts taken where the work happens, outside the span's interval."""
        name = span["name"]
        if name == "db_reader.open_source":
            span["live"] = self._is_live(args[0])
        elif name in _DB_LOADS:
            span["live"] = self._is_live(args[0].path)
            span["rows"] = len(result)
        elif name == "backup_crypto.decrypt_backup":
            span["bytes"] = len(result)
        elif name == "log_parser.parse_log_file":
            span["lines"] = len(result)
            span["classified"] = sum(1 for e in result if e.kind is not self._other_kind)
        elif name == "correlator.correlate_media":
            media = [sum(1 for r in records if r.media_wa_type in (1, 2, 3)) for records in args[:2]]
            span["pairs"] = media[0] * media[1]
            span["matched"] = sum(1 for f in result if f.payload.get("match") != "local-file")
        elif name == "correlator.analyze":
            span["findings"] = len(result.findings)
        elif name == "report.render_report_json":
            span["bytes"] = len(result.encode("utf-8"))
        elif name == "report.timeline_rows":
            span["rows"] = len(result)
        elif name == "ingest.load_case_bundle":
            self.bundles.append(result)

    def install(self) -> None:
        """Swap every wadroid module's reference to a traced function for its wrapper."""
        import wadroid.cli  # noqa: F401  (loads every module the CLI uses)
        from wadroid import model

        self._other_kind = model.EventKind.OTHER
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "wadroid"]
        for module_name, names in SPANNED.items():
            module = sys.modules[f"wadroid.{module_name}"]
            for name in names:
                original = getattr(module, name)
                _replace(modules, original, self.span(f"{module_name}.{name}", original))

        parse_jid = model.parse_jid

        @functools.wraps(parse_jid)
        def counted_parse_jid(raw):
            self.parse_jid_calls += 1
            self.parse_jid_args.add(raw)
            return parse_jid(raw)

        _replace(modules, parse_jid, counted_parse_jid)

        log_coverage = model.CaseBundle.log_coverage

        @functools.wraps(log_coverage)
        def counted_log_coverage(bundle):
            self.coverage_scans += 1
            return log_coverage(bundle)

        model.CaseBundle.log_coverage = counted_log_coverage

    def self_times(self) -> None:
        """A span's self time is its duration minus its children's."""
        for span in self.spans:
            span["self"] = span["end"] - span["start"]
        for span in self.spans:
            if span["parent"] is not None:
                self.spans[span["parent"]]["self"] -= span["end"] - span["start"]

    def layers(self) -> dict[str, float]:
        """Per-layer numbers of this process (see perfbench/README.md)."""
        self.self_times()

        def total(name, key=None, live=None):
            """Sum of a span field (default: duration) over the spans named ``name``."""
            return sum(
                (s[key] if key else s["end"] - s["start"])
                for s in self.spans
                if s["name"] == name and (live is None or s.get("live") is live)
            )

        def ratio(part, whole):
            return part / whole if whole else 0.0

        db_names = ("db_reader.open_source", *_DB_LOADS)
        backup_rows = total("db_reader.load_messages", "rows", live=False)
        useful = 0
        for bundle in self.bundles:
            live_pairs = {(m.key_remote_jid.raw, m.key_id_raw) for m in bundle.messages}
            useful += len(
                {
                    (r.key_remote_jid.raw, r.key_id_raw)
                    for backup in bundle.backups
                    for r in backup.messages
                }
                - live_pairs
            )
        lines = total("log_parser.parse_log_file", "lines")
        pairs = total("correlator.correlate_media", "pairs")
        out = {
            "backup_crypto.decrypt_s": total("backup_crypto.decrypt_backup"),
            "backup_crypto.mb": total("backup_crypto.decrypt_backup", "bytes") / 1e6,
            "db_reader.backup_load_s": sum(total(n, live=False) for n in db_names),
            "db_reader.backup_rows": backup_rows,
            "ingest.backup_useful_ratio": ratio(useful, backup_rows),
            "model.parse_jid_calls": self.parse_jid_calls,
            "model.parse_jid_distinct": len(self.parse_jid_args),
            "db_reader.live_load_s": sum(total(n, live=True) for n in db_names),
            "db_reader.live_rows": sum(total(n, "rows", live=True) for n in _DB_LOADS),
            "log_parser.parse_s": total("log_parser.parse_log_file") + total("log_parser.merge_events"),
            "log_parser.lines": lines,
            "log_parser.classified_ratio": ratio(total("log_parser.parse_log_file", "classified"), lines),
            "correlator.analyze_s": total("correlator.analyze"),
            "correlator.analyze_self_s": total("correlator.analyze", "self"),
        }
        for step in ANALYZE_STEPS:
            out[f"correlator.{step}_s"] = total(f"correlator.{step}")
        out.update(
            {
                "correlator.coverage_scans": self.coverage_scans,
                "correlator.findings": total("correlator.analyze", "findings"),
                "correlator.media_pairs": pairs,
                "correlator.media_match_ratio": ratio(total("correlator.correlate_media", "matched"), pairs),
                "correlator.backup_recovered_records_s": total("correlator.backup_recovered_records"),
                "correlator.backup_diff_s": total("correlator.backup_diff"),
                "ingest.load_s": total("ingest.load_case_bundle"),
                "ingest.self_s": total("ingest.load_case_bundle", "self"),
                "ingest.media_mb": sum(
                    m.size_bytes for b in self.bundles for m in b.media_inventory
                ) / 1e6,
                "report.build_s": total("report.build_report"),
                "report.render_json_s": total("report.render_report_json"),
                "report.json_mb": total("report.render_report_json", "bytes") / 1e6,
                "report.render_csv_s": total("report.render_timeline_csv"),
                "report.csv_rows": total("report.timeline_rows", "rows"),
            }
        )
        return out


def _replace(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py TRACE_OUT -- <wadroid arguments>", file=sys.stderr)
        return 64
    trace_out, command = Path(argv[0]), argv[2:]
    start = time.perf_counter()
    import wadroid.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(Path(command[command.index("--in") + 1]))
    tracer.install()
    code = wadroid.cli.run(command)
    layers = tracer.layers()
    layers["cli.import_s"] = import_s
    trace_out.write_text(
        json.dumps({"command": command, "exit_code": code, "layers": layers, "spans": tracer.spans}),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
