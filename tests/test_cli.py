"""Command-line behavior: subcommands, exit codes, output stability."""

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import wadroid
from wadroid import forge, ingest, layout
from wadroid import report as report_mod
from wadroid.backup_crypto import SQLITE_MAGIC, decrypt_backup, encrypt_fixture
from wadroid.cli import EXIT_ERROR, EXIT_OK, EXIT_USAGE, EXIT_WARNINGS, run
from wadroid.errors import StructuralError


@pytest.fixture()
def conversation_dir(tmp_path):
    result = forge.generate_bundle(helpers.conversation_script(), tmp_path / "evidence")
    return result.root


def test_report_to_file(conversation_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["report", "--in", str(conversation_dir), "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["bundle_summary"]["messages"] == 4
    partners = [c["partner"] for c in doc["conversations"]]
    assert partners == [helpers.jid(helpers.PARTNER)]
    texts = [m["content"]["text"] for m in doc["conversations"][0]["messages"]]
    assert texts == ["Message 1", "Reply 1", "Message 2", "Reply 2"]


def test_report_is_byte_stable(conversation_dir, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["report", "--in", str(conversation_dir), "--out", str(out1)]) == EXIT_OK
    assert run(["report", "--in", str(conversation_dir), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_report_tz_rendering(conversation_dir, tmp_path):
    out = tmp_path / "report.json"
    run(["report", "--in", str(conversation_dir), "--out", str(out), "--tz", "+01:00"])
    doc = json.loads(out.read_text(encoding="utf-8"))
    first = doc["conversations"][0]["messages"][0]
    assert first["effective"]["epoch_ms"] == helpers.CONV_IN_1
    assert first["effective"]["local"] == "2012-02-13 07:59:09.000 +01:00"


def test_report_verify_readonly(conversation_dir, tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["report", "--in", str(conversation_dir), "--out", str(out), "--verify-readonly"]
    )
    assert code == EXIT_OK


def test_report_empty_dir_is_structural_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = run(["report", "--in", str(empty)])
    assert code == EXIT_ERROR
    assert "no recognizable evidence" in capsys.readouterr().err


def test_partial_bundle_warns_exit_code(tmp_path, conversation_dir):
    # remove the contacts database: report still works, exit code 1
    (conversation_dir / "data/data/com.whatsapp/databases/wa.db").unlink()
    out = tmp_path / "report.json"
    code = run(["report", "--in", str(conversation_dir), "--out", str(out)])
    assert code == EXIT_WARNINGS
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert any("contacts database missing" in w["message"] for w in doc["warnings"])


def test_usage_error_exit_code(capsys):
    assert run(["report"]) == EXIT_USAGE  # --in is required
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE


def test_report_csv_without_out_is_a_usage_error(conversation_dir, monkeypatch, capsys):
    def loaded(*args, **kwargs):
        raise AssertionError("evidence loaded before the usage check")

    monkeypatch.setattr(ingest, "load_case_bundle", loaded)
    assert run(["report", "--in", str(conversation_dir), "--format", "csv"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format csv needs --out" in captured.err


def test_ingest_summary(conversation_dir, capsys):
    code = run(["ingest", "--in", str(conversation_dir)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["bundle_summary"]["messages"] == 4
    assert doc["warnings"] == []


def test_decrypt_roundtrip(tmp_path):
    base = 1380000000000
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.SendText(at_ms=base, sender=helpers.OWNER, to=helpers.PARTNER, text="x"),
            forge.SnapshotBackup(at_ms=base + 60_000),
        ),
    )
    result = forge.generate_bundle(script, tmp_path / "evidence")
    crypt = next((result.root / "mnt/sdcard/WhatsApp/Databases").glob("*.crypt"))
    out = tmp_path / "restored.db"
    assert run(["decrypt", "--in", str(crypt), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes().startswith(SQLITE_MAGIC)


def test_decrypt_wrong_key_fails(tmp_path):
    target = tmp_path / "x.crypt"
    target.write_bytes(bytes(32))
    out = tmp_path / "y.db"
    code = run(["decrypt", "--in", str(target), "--out", str(out)])
    assert code == EXIT_ERROR
    assert not out.exists()


DELETED_AT = 1380000000000  # 2013-09-24 05:20:00Z


def _deleted_after_backup(tmp_path, text):
    """One sent message that reached a backup and was then deleted."""
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.SendText(
                at_ms=DELETED_AT, sender=helpers.OWNER, to=helpers.PARTNER, text=text, label="m"
            ),
            forge.SnapshotBackup(at_ms=DELETED_AT + 60_000),
            forge.DeleteMessage(at_ms=DELETED_AT + 120_000, target="m"),
        ),
    )
    return forge.generate_bundle(script, tmp_path / "evidence")


def test_diff_lists_recovered_messages(tmp_path, capsys):
    result = _deleted_after_backup(tmp_path, "gone")
    code = run(["diff", "--in", str(result.root)])
    captured = capsys.readouterr().out
    doc = json.loads(captured)
    assert code == EXIT_WARNINGS  # dangling chat pointer after deletion
    assert doc["backups"][0]["recovered_count"] == 1
    assert doc["backups"][0]["recovered"][0]["data"] == "gone"


def test_diff_writes_non_ascii_text_verbatim(tmp_path):
    result = _deleted_after_backup(tmp_path, "caffè ☕")
    out = tmp_path / "diff.json"
    assert run(["diff", "--in", str(result.root), "--out", str(out)]) == EXIT_WARNINGS
    data = out.read_bytes()
    assert '"data": "caffè ☕"'.encode("utf-8") in data
    assert b"\\u" not in data


def test_diff_document_renders_times_in_the_display_offset(tmp_path):
    result = _deleted_after_backup(tmp_path, "gone")
    bundle = ingest.load_case_bundle(result.root)
    doc = report_mod.diff_document(bundle, 60)
    (backup,) = doc["backups"]
    assert backup["name"] == bundle.backups[0].name
    assert backup["recovered_count"] == 1
    (row,) = backup["recovered"]
    assert row["direction"] == "outgoing"
    assert row["timestamp"] == DELETED_AT
    assert row["timestamp_local"] == "2013-09-24 06:20:00.000 +01:00"


def test_ingest_lists_warnings_by_source(tmp_path, capsys):
    result = _deleted_after_backup(tmp_path, "gone")
    assert run(["ingest", "--in", str(result.root)]) == EXIT_WARNINGS
    doc = json.loads(capsys.readouterr().out)
    assert doc["bundle_summary"]["backups"] == [b.name for b in result.bundle.backups]
    assert doc["warnings"] == [
        {
            "source": "msgstore.db:chat_list#1",
            "message": "message_table_id 1 does not reference a live messages row "
            "(the message may have been deleted)",
        }
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest"],
        ["report"],
        ["diff"],
        ["timeline", "--format", "json"],
        ["timeline", "--format", "csv"],
    ],
    ids=["ingest", "report", "diff", "timeline-json", "timeline-csv"],
)
def test_stdout_gets_the_out_file_bytes_whatever_the_locale(tmp_path, argv):
    text = "caffè ☕"
    result = _deleted_after_backup(tmp_path, text)
    env = {
        **os.environ,
        "PYTHONIOENCODING": "ascii",
        "PYTHONPATH": str(Path(wadroid.__file__).parents[1]),
    }
    command = [sys.executable, "-m", "wadroid.cli", *argv, "--in", str(result.root)]
    out = tmp_path / "out"
    wadroid_cli = functools.partial(subprocess.run, env=env, capture_output=True, timeout=60)
    to_stdout = wadroid_cli(command)
    to_file = wadroid_cli([*command, "--out", str(out)])
    assert to_stdout.returncode == to_file.returncode == EXIT_WARNINGS, to_stdout.stderr
    assert to_stdout.stdout == out.read_bytes()
    if argv != ["ingest"]:
        assert text.encode("utf-8") in to_stdout.stdout


def _three_backups(tmp_path):
    """Two messages, each deleted after it reached some of three backups."""
    base = 1380000000000
    send = functools.partial(forge.SendText, sender=helpers.OWNER, to=helpers.PARTNER)
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            send(at_ms=base, text="first", label="m1"),
            forge.SnapshotBackup(at_ms=base + 60_000),
            send(at_ms=base + 90_000, text="second", label="m2"),
            forge.SnapshotBackup(at_ms=base + 120_000),
            forge.SnapshotBackup(at_ms=base + 180_000),
            forge.DeleteMessage(at_ms=base + 240_000, target="m1"),
            forge.DeleteMessage(at_ms=base + 300_000, target="m2"),
        ),
    )
    return forge.generate_bundle(script, tmp_path / "evidence")


def test_corrupt_backup_is_skipped_with_a_warning(tmp_path, capsys):
    result = _three_backups(tmp_path)
    crypts = sorted((result.root / layout.BACKUPS_DIR).glob("*.crypt"))
    assert len(crypts) == 3
    bad = crypts[1]
    bad.write_bytes(encrypt_fixture(helpers.corrupt_page_2(decrypt_backup(bad))))
    out = tmp_path / "report.json"
    code = run(["report", "--in", str(result.root), "--out", str(out)])
    assert code == EXIT_WARNINGS
    assert "Traceback" not in capsys.readouterr().err
    again = tmp_path / "again.json"
    assert run(["report", "--in", str(result.root), "--out", str(again)]) == EXIT_WARNINGS
    assert again.read_bytes() == out.read_bytes()  # no temp path leaks into the report
    doc = json.loads(out.read_text(encoding="utf-8"))
    unreadable = [w for w in doc["warnings"] if "decrypted backup unreadable" in w["message"]]
    assert [w["source"] for w in unreadable] == [f"{layout.BACKUPS_DIR}/{bad.name}"]
    assert bad.name in unreadable[0]["message"]
    assert doc["bundle_summary"]["backups"] == [crypts[0].name, crypts[2].name]
    recovered = {
        m["content"]["text"]
        for c in doc["conversations"]
        for m in c["messages"]
        if m["source"] == "recovered-from-backup"
    }
    assert recovered == {"first", "second"}


def test_corrupt_live_database_is_a_tool_error(conversation_dir, capsys):
    msgstore = conversation_dir / layout.MSGSTORE_DB
    msgstore.write_bytes(helpers.corrupt_page_2(msgstore.read_bytes()))
    assert run(["report", "--in", str(conversation_dir)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_backup_row_warnings_name_their_backup(tmp_path):
    result = _three_backups(tmp_path)
    crypt = sorted((result.root / layout.BACKUPS_DIR).glob("*.crypt"))[0]
    row = {"key_remote_jid": helpers.jid(helpers.PARTNER), "key_id": "1-1", "media_hash": "%%"}
    plain = helpers.msgstore_db(tmp_path / "replacement.db", [row]).read_bytes()
    crypt.write_bytes(encrypt_fixture(plain))
    bundle = ingest.load_case_bundle(result.root)
    assert [w.source for w in bundle.warnings if "media_hash" in w.message] == [
        f"{crypt.name}:messages#1"
    ]


def test_geo_row_without_coordinates_warns_once(conversation_dir, tmp_path):
    row = {"key_remote_jid": helpers.jid(helpers.PARTNER), "key_id": "1-1", "media_wa_type": 5}
    msgstore = conversation_dir / layout.MSGSTORE_DB
    msgstore.write_bytes(helpers.msgstore_db(tmp_path / "geo.db", [row]).read_bytes())
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(conversation_dir), "--out", str(out)]) == EXIT_WARNINGS
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [w for w in doc["warnings"] if "geo" in w["message"]] == [
        {"source": "msgstore.db:messages#1", "message": "geo message lacks latitude/longitude"}
    ]


def test_media_hashed_in_chunks(conversation_dir):
    content = random.Random(5).randbytes(2 * ingest.MEDIA_HASH_CHUNK + 1)
    video = conversation_dir / layout.MEDIA_DIR / "WhatsApp Video" / "big.mp4"
    video.parent.mkdir(parents=True, exist_ok=True)
    video.write_bytes(content)
    bundle = ingest.load_case_bundle(conversation_dir)
    (media,) = [m for m in bundle.media_inventory if m.path.endswith("big.mp4")]
    assert media.size_bytes == len(content)
    assert media.sha256 == hashlib.sha256(content).hexdigest()


_SPLIT_LINES = {"line_pattern": r"^(?P<ts>\S+) (?P<body>.*)$", "timestamp_format": "epoch_s"}


@pytest.mark.parametrize(
    "spec, reason",
    [
        ([1, 2], "not a JSON object"),
        ({"version": 1, **_SPLIT_LINES, "rules": ["x"]}, "rule #1 is not a JSON object"),
        ({"version": 99, **_SPLIT_LINES, "rules": []}, "unsupported grammar version 99"),
        ({"version": 1, **_SPLIT_LINES, "line_pattern": 5, "rules": []}, "invalid grammar"),
        ({"version": 1, **_SPLIT_LINES, "timestamp_format": 5, "rules": []}, "invalid grammar"),
    ],
    ids=["not-an-object", "string-rule", "version-99", "numeric-pattern", "numeric-format"],
)
def test_malformed_grammar_file_is_an_error(conversation_dir, tmp_path, capsys, spec, reason):
    grammar_path = tmp_path / "grammar.json"
    grammar_path.write_text(json.dumps(spec), encoding="utf-8")
    code = run(["report", "--in", str(conversation_dir), "--grammar", str(grammar_path)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


def test_unexpected_exception_is_a_tool_error(conversation_dir, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(report_mod, "build_report", broken)
    assert run(["report", "--in", str(conversation_dir)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "internal error" in err and "simulated defect" in err
    assert "Traceback" not in err


def test_timeline_csv(tmp_path, capsys):
    result = forge.generate_bundle(helpers.group_script(), tmp_path / "evidence")
    code = run(["timeline", "--in", str(result.root), "--format", "csv", "--tz", "+00:00"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scope,subject,epoch_ms,local_time,event,participant,detail"
    group_lines = [l for l in lines if l.startswith("group,")]
    assert len(group_lines) == 5
    assert "2013-11-14 22:11:36.000 +00:00" in "\n".join(group_lines)


def test_timeline_json_matches_the_report(tmp_path, capsys):
    result = _golden_scenario(tmp_path)
    out = tmp_path / "report.json"
    run(["report", "--in", str(result.root), "--out", str(out), "--tz", "+01:00"])
    capsys.readouterr()
    run(["timeline", "--in", str(result.root), "--format", "json", "--tz", "+01:00"])
    doc = json.loads(capsys.readouterr().out)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"groups", "chats"}
    assert doc["groups"] and doc["chats"]
    assert doc["groups"] == report["group_timelines"]
    assert doc["chats"] == report["conversations"]


def test_timeline_exit_code_counts_analysis_warnings(tmp_path, capsys):
    from wadroid.log_parser import body_group_member_left, format_line

    result = forge.generate_bundle(helpers.group_script(), tmp_path / "evidence")
    (gid,) = result.expected.group_timelines
    stranger = helpers.jid("393209999999")
    with (result.root / layout.MAIN_LOG).open("a", encoding="utf-8") as log:
        log.write(format_line(helpers.GRP_LEAVE_E + 1000, body_group_member_left(gid, stranger)))
        log.write("\n")
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(result.root), "--out", str(out)]) == EXIT_WARNINGS
    warnings = json.loads(out.read_text(encoding="utf-8"))["warnings"]
    assert [w["message"] for w in warnings] == [f"{stranger} leaves {gid} without a recorded join"]
    for fmt in ("csv", "json"):
        assert run(["timeline", "--in", str(result.root), "--format", fmt]) == EXIT_WARNINGS


def test_forge_cli(tmp_path, capsys):
    script_path = tmp_path / "scenario.json"
    script_path.write_text(forge.script_to_json(helpers.conversation_script()), "utf-8")
    out_dir = tmp_path / "bundle"
    code = run(["forge", "--script", str(script_path), "--out", str(out_dir)])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["messages"] == 4
    # the forged tree parses back
    bundle = ingest.load_case_bundle(out_dir)
    assert len(bundle.messages) == 4


def test_cli_import_skips_the_forge(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(wadroid.__file__).parents[1])}
    python = functools.partial(subprocess.run, env=env, capture_output=True, timeout=60)
    check = "import sys, wadroid.cli; print('wadroid.forge' in sys.modules)"
    probe = python([sys.executable, "-c", check])
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == b"False\n"
    # the forge command still imports it
    script_path = tmp_path / "scenario.json"
    script_path.write_text(forge.script_to_json(helpers.conversation_script()), "utf-8")
    out_dir = tmp_path / "bundle"
    command = ["forge", "--script", str(script_path), "--out", str(out_dir)]
    done = python([sys.executable, "-m", "wadroid.cli", *command])
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["messages"] == 4


_OWNER_ONLY = {"version": 1, "owner": "1"}
_BAD_HEX = {"at": 1, "do": "send_media", "sender": "1", "to": "2", "content_hex": "zz"}


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[1, 2]", "script is not a JSON object"),
        ('"script"', "script is not a JSON object"),
        ("{", "script is not valid JSON"),
        (json.dumps({**_OWNER_ONLY, "actors": "1"}), "'actors' is not a list"),
        (json.dumps({**_OWNER_ONLY, "actors": ["1"], "actions": {}}), "'actions' is not a list"),
        (json.dumps({**_OWNER_ONLY, "actors": ["1"], "actions": ["x"]}), "action #1 is not"),
        (json.dumps({**_OWNER_ONLY, "actors": ["1"], "tz": "noon"}), "'tz' or 'seed'"),
        (json.dumps({**_OWNER_ONLY, "actors": ["1"], "seed": "x"}), "'tz' or 'seed'"),
        (json.dumps({**_OWNER_ONLY, "actors": ["1"], "actions": [_BAD_HEX]}), "content_hex"),
    ],
    ids=[
        "list",
        "string",
        "not-json",
        "actors-text",
        "actions-object",
        "action-text",
        "bad-tz",
        "bad-seed",
        "bad-hex",
    ],
)
def test_malformed_script_is_an_error(tmp_path, capsys, text, reason):
    script_path = tmp_path / "scenario.json"
    script_path.write_text(text, encoding="utf-8")
    code = run(["forge", "--script", str(script_path), "--out", str(tmp_path / "bundle")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


@pytest.mark.parametrize(
    "content, registered",
    [(b"\x00\xff", "\x00\ufffd"), (b"39340\x07\n", "39340\x07"), (b"\xc3", "\ufffd")],
    ids=["nul-and-invalid-utf8", "control-character", "truncated-utf8"],
)
def test_damaged_me_file_warns(conversation_dir, capsys, content, registered):
    (conversation_dir / layout.ME_FILE).write_bytes(content)
    code = run(["ingest", "--in", str(conversation_dir)])
    assert code == EXIT_WARNINGS
    doc = json.loads(capsys.readouterr().out)
    assert doc["bundle_summary"]["registered_number"] == registered
    assert [w["source"] for w in doc["warnings"]] == [layout.ME_FILE]


def test_clean_me_file_does_not_warn(conversation_dir, capsys):
    (conversation_dir / layout.ME_FILE).write_bytes(" 393400000001 \r\n".encode())
    code = run(["ingest", "--in", str(conversation_dir)])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)["bundle_summary"]
    assert summary["registered_number"] == "393400000001"


def test_report_csv_export(conversation_dir, tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["report", "--in", str(conversation_dir), "--out", str(out), "--format", "csv"]
    )
    assert code == EXIT_OK
    csv_path = out.with_suffix(".timeline.csv")
    assert csv_path.exists()
    assert "message-incoming" in csv_path.read_text(encoding="utf-8")


def test_structural_error_for_missing_dir(tmp_path):
    assert run(["report", "--in", str(tmp_path / "nope")]) == EXIT_ERROR


def test_report_group_scenario_with_tz(tmp_path):
    result = forge.generate_bundle(helpers.group_script(), tmp_path / "evidence")
    out = tmp_path / "report.json"
    code = run(["report", "--in", str(result.root), "--out", str(out), "--tz", "+01:00"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text(encoding="utf-8"))
    events = doc["group_timelines"][0]["events"]
    assert len(events) == 5
    assert [e["kind"] for e in events] == ["created", "joined", "joined", "left", "left"]
    assert events[0]["at"]["local"] == "2013-11-11 17:24:05.000 +01:00"
    assert events[3]["at"]["local"] == "2013-11-14 23:11:36.000 +01:00"


def test_report_with_explicit_grammar_file(conversation_dir, tmp_path):
    from wadroid.log_parser import DEFAULT_GRAMMAR

    grammar_path = tmp_path / "grammar.json"
    grammar_path.write_text(json.dumps(DEFAULT_GRAMMAR.to_dict()), encoding="utf-8")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["report", "--in", str(conversation_dir), "--out", str(out1)]) == EXIT_OK
    assert (
        run(
            [
                "report",
                "--in",
                str(conversation_dir),
                "--out",
                str(out2),
                "--grammar",
                str(grammar_path),
            ]
        )
        == EXIT_OK
    )
    assert out1.read_bytes() == out2.read_bytes()


def test_rotated_logs_are_merged(conversation_dir, capsys):
    from wadroid.log_parser import body_contact_missing, format_line

    rotated = conversation_dir / "data/data/com.whatsapp/files/Logs/whatsapp-2012-02-12.log"
    rotated.write_text(
        format_line(1329000000000, body_contact_missing(helpers.jid(helpers.PARTNER)))
        + "\n",
        encoding="utf-8",
    )
    code = run(["ingest", "--in", str(conversation_dir)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    # 8 lines from the conversation log plus the rotated file's one
    assert doc["bundle_summary"]["log_events"] == 9


def test_load_case_bundle_raises_structural(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(StructuralError):
        ingest.load_case_bundle(empty)


GOLDEN = Path(__file__).parent / "data" / "golden_report.json"


def _golden_scenario(tmp_path):
    base = 1380000000000
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER, helpers.BC_R1),
        seed=2013,
        actions=(
            forge.AddContact(at_ms=base, number=helpers.PARTNER),
            forge.SendText(
                at_ms=base + 60_000,
                sender=helpers.PARTNER,
                to=helpers.OWNER,
                text="ciao",
                label="m1",
            ),
            forge.SendText(
                at_ms=base + 120_000, sender=helpers.OWNER, to=helpers.PARTNER, text="ciao ciao"
            ),
            forge.CreateGroup(at_ms=base + 180_000, name="golden group", label="g"),
            forge.AddToGroup(at_ms=base + 240_000, group="g", member=helpers.PARTNER),
            forge.BlockContact(at_ms=base + 300_000, number=helpers.BC_R1),
            forge.SnapshotBackup(at_ms=base + 360_000),
            forge.DeleteMessage(at_ms=base + 420_000, target="m1"),
        ),
    )
    return forge.generate_bundle(script, tmp_path / "golden-evidence")


def test_golden_report(tmp_path):
    """Pin the JSON schema: byte-for-byte comparison modulo tool version.

    Regenerate with: python -m tests.regen_golden (see that module).
    """
    result = _golden_scenario(tmp_path)
    from wadroid.correlator import analyze
    from wadroid.report import build_report, render_report_json

    bundle = ingest.load_case_bundle(result.root)
    doc = build_report(bundle, analyze(bundle, "393400000001"), 60)
    doc["tool_version"] = "TEST"
    rendered = render_report_json(doc)
    assert rendered == GOLDEN.read_text(encoding="utf-8")
