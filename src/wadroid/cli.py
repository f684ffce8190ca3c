"""Command-line front end.

The CLI is a thin shell over the library: it parses arguments, calls
``ingest``/``correlator``, writes the documents ``report`` shapes and
serializes, and maps the outcome to an exit code. Exit codes: 0 clean
run, 1 report produced but with warnings, 2 structural or tool errors
(a damaged live database, or an unexpected internal error), 64 usage
errors.

Each command reads only what its output uses, through one
``ingest.Evidence``, and its exit code counts the warnings of what it
read and of the analysis steps it ran.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__, backup_crypto, ingest, report as report_mod
from .correlator import analyze, build_chronology
from .errors import WadroidError
from .log_parser import DEFAULT_GRAMMAR, LogGrammar
from .model import CaseBundle, parse_tz_offset

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_ERROR = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _hex_key(text: str) -> bytes:
    try:
        key = bytes.fromhex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a hex key: {exc}") from exc
    if len(key) not in (16, 24, 32):
        raise argparse.ArgumentTypeError("AES key must be 16/24/32 bytes of hex")
    return key


def _tz(text: str) -> int:
    try:
        return parse_tz_offset(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _sim(text: str) -> str:
    """A SIM number: it holds digits, all of them ASCII; separators may stay."""
    digits = [ch for ch in text if ch.isdigit()]
    if not digits or not all("0" <= ch <= "9" for ch in digits):
        raise argparse.ArgumentTypeError(f"{text!r} needs digits 0-9 and no other digit")
    return text


def build_parser() -> _Parser:
    parser = _Parser(prog="wadroid", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wadroid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def evidence_options(p, reads_logs=True):
        p.add_argument("--in", dest="in_path", required=True, help="evidence directory")
        if reads_logs:
            p.add_argument("--grammar", help="log grammar JSON file")
        p.add_argument("--key", type=_hex_key, help="backup AES key override (hex)")

    p_ingest = sub.add_parser("ingest", help="parse an evidence directory and summarize it")
    evidence_options(p_ingest)
    p_ingest.add_argument("--out", help="write the summary JSON here instead of stdout")

    p_report = sub.add_parser("report", help="full analysis report (canonical JSON)")
    evidence_options(p_report)
    p_report.add_argument("--out", help="report file (default: stdout)")
    p_report.add_argument("--tz", type=_tz, default=0, help="display offset, e.g. +01:00")
    p_report.add_argument(
        "--sim", type=_sim, help="phone number of the SIM found in the device (digits 0-9)"
    )
    p_report.add_argument(
        "--verify-readonly",
        action="store_true",
        help="assert that no evidence file changed during the run",
    )

    p_decrypt = sub.add_parser("decrypt", help="decrypt one backup file")
    p_decrypt.add_argument("--in", dest="in_path", required=True, help="encrypted backup")
    p_decrypt.add_argument("--out", required=True, help="plaintext database destination")
    p_decrypt.add_argument("--key", type=_hex_key, help="backup AES key override (hex)")

    p_diff = sub.add_parser("diff", help="messages present in backups but not live")
    evidence_options(p_diff, reads_logs=False)
    p_diff.add_argument("--out", help="write the diff JSON here instead of stdout")
    p_diff.add_argument("--tz", type=_tz, default=0)

    p_timeline = sub.add_parser("timeline", help="group/chat chronologies")
    evidence_options(p_timeline)
    p_timeline.add_argument("--out", help="output file (default: stdout)")
    p_timeline.add_argument("--tz", type=_tz, default=0)
    p_timeline.add_argument("--format", choices=("json", "csv"), default="json")

    p_forge = sub.add_parser("forge", help="generate a synthetic evidence bundle")
    p_forge.add_argument("--script", required=True, help="scenario script (JSON)")
    p_forge.add_argument("--out", required=True, help="output directory")
    return parser


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # either does not exist
        return False


def _inside(path: str | Path, root: str) -> bool:
    try:
        return Path(path).resolve().is_relative_to(Path(root).resolve())
    except RuntimeError:  # a symlink loop: nothing can be read or written through it
        return False


def _load_grammar(path: str | None) -> LogGrammar:
    return LogGrammar.from_json_file(path) if path else DEFAULT_GRAMMAR


def _emit(text: str, out: str | Path | None) -> None:
    """Write ``text`` as UTF-8 to the file ``out``, or to stdout's bytes.

    Stdout gets the same bytes as the file whatever the locale's encoding;
    it is flushed here so that a failed write maps to an exit code.
    """
    data = text.encode("utf-8")
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _cmd_ingest(args) -> int:
    bundle = ingest.load_case_bundle(args.in_path, _load_grammar(args.grammar), args.key)
    _emit(report_mod.render_report_json(report_mod.ingest_document(bundle)), args.out)
    return EXIT_WARNINGS if bundle.warnings else EXIT_OK


def _cmd_report(args) -> int:
    before = ingest.snapshot_tree(args.in_path) if args.verify_readonly else None
    # Only the report reads media digests: each file is hashed once, where
    # ``correlate_media`` first asks.
    bundle = ingest.load_case_bundle(args.in_path, _load_grammar(args.grammar), args.key)
    analysis = analyze(bundle, args.sim)
    doc = report_mod.build_report(bundle, analysis, args.tz)
    _emit(report_mod.render_report_json(doc), args.out)
    if args.verify_readonly:
        after = ingest.snapshot_tree(args.in_path)
        if before != after:
            changed = sorted(
                set(before) ^ set(after)
                | {p for p in set(before) & set(after) if before[p] != after[p]}
            )
            print(
                "read-only verification FAILED; changed: " + ", ".join(changed),
                file=sys.stderr,
            )
            return EXIT_ERROR
    return EXIT_WARNINGS if doc["warnings"] else EXIT_OK


def _cmd_decrypt(args) -> int:
    plain = backup_crypto.decrypt_backup(args.in_path, args.key)
    Path(args.out).write_bytes(plain)
    print(f"decrypted {len(plain)} bytes from {args.in_path} to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_diff(args) -> int:
    with ingest.Evidence(args.in_path, key=args.key) as evidence:
        doc = report_mod.diff_document(evidence.backups, evidence.live_pairs, args.tz)
    _emit(report_mod.render_report_json(doc), args.out)
    return EXIT_WARNINGS if evidence.warnings else EXIT_OK


def _cmd_timeline(args) -> int:
    with ingest.Evidence(args.in_path, _load_grammar(args.grammar), args.key) as evidence:
        bundle = CaseBundle(
            messages=evidence.messages, backups=evidence.backups, log_events=evidence.group_events
        )
    chronology = build_chronology(bundle)
    if args.format == "csv":
        _emit(report_mod.render_timeline_csv(chronology, args.tz), args.out)
    else:
        doc = report_mod.timeline_document(chronology, args.tz)
        _emit(report_mod.render_report_json(doc), args.out)
    return EXIT_WARNINGS if evidence.warnings or chronology.warnings else EXIT_OK


def _cmd_forge(args) -> int:
    # Imported here: the forge is large and no other command uses it.
    from . import forge

    script = forge.script_from_json(Path(args.script).read_text(encoding="utf-8"))
    result = forge.generate_bundle(script, args.out)
    _emit(report_mod.render_report_json(report_mod.forge_summary(result)), None)
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "report": _cmd_report,
    "decrypt": _cmd_decrypt,
    "diff": _cmd_diff,
    "timeline": _cmd_timeline,
    "forge": _cmd_forge,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "decrypt" and _same_file(args.in_path, args.out):
            parser.error("--out names the backup given as --in; it would be overwritten")
        if args.command in ("ingest", "report", "diff", "timeline") and args.out:
            if _inside(args.out, args.in_path):
                parser.error("--out lies inside the evidence directory given as --in")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except WadroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # exit 1 must only ever mean "finished with warnings"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
