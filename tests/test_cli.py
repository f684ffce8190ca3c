"""Command-line behavior: subcommands, exit codes, output stability."""

import builtins
import collections
import csv
import functools
import hashlib
import io
import json
import os
import random
import shutil
import sqlite3
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis
import pytest
from hypothesis import strategies as st

import helpers
import wadroid
from wadroid import db_reader, forge, ingest, layout, log_parser, model
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


def test_group_id_epoch_too_long_to_convert_is_a_warning(tmp_path):
    root = tmp_path / "evidence"
    (root / layout.LOGS_DIR).mkdir(parents=True)
    gid = "1-" + "9" * 5000 + "@g.us"  # more digits than CPython converts to int
    (root / layout.MAIN_LOG).write_text(
        f"2013-09-24 05:20:00.000 +0000 contact/block jid={gid}\n", encoding="utf-8"
    )
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(root), "--out", str(out)]) == EXIT_WARNINGS
    warnings = json.loads(out.read_text(encoding="utf-8"))["warnings"]
    assert any("too many digits" in w["message"] for w in warnings)


def test_message_key_too_long_to_convert_in_a_log_line_is_a_warning(tmp_path):
    root = tmp_path / "evidence"
    (root / layout.LOGS_DIR).mkdir(parents=True)
    key = "9" * 5000 + "-1"  # more digits than CPython converts to int
    (root / layout.MAIN_LOG).write_text(
        f"2013-09-24 05:20:00.000 +0000 msgstore/delete key={key}\n", encoding="utf-8"
    )
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(root), "--out", str(out)]) == EXIT_WARNINGS
    warnings = json.loads(out.read_text(encoding="utf-8"))["warnings"]
    assert any("malformed message key" in w["message"] for w in warnings)


@pytest.mark.parametrize("command", ["report", "timeline", "diff"])
def test_message_key_too_long_to_convert_in_a_row_is_a_warning(tmp_path, command):
    conversation = helpers.conversation_script()
    backup = forge.SnapshotBackup(at_ms=conversation.actions[-1].at_ms + 60_000)
    script = forge.ScenarioScript(
        owner=conversation.owner,
        actors=conversation.actors,
        actions=(*conversation.actions, backup),
    )
    root = forge.generate_bundle(script, tmp_path / "evidence").root
    assert run([command, "--in", str(root)]) == EXIT_OK
    digits = "9" * 5000  # more digits than CPython converts to int
    set_key = "UPDATE messages SET key_id = ? WHERE _id = (SELECT min(_id) FROM messages)"
    # A live row and, under another key so that it is not skipped as
    # live, a backup row: diff decodes only the latter.
    _update(root / layout.MSGSTORE_DB, set_key, (digits + "-1",))
    (crypt,) = (root / layout.BACKUPS_DIR).glob("*.crypt")
    plain = tmp_path / "backup.db"
    plain.write_bytes(decrypt_backup(crypt))
    _update(plain, set_key, (digits + "-2",))
    crypt.write_bytes(encrypt_fixture(plain.read_bytes()))
    assert run([command, "--in", str(root)]) == EXIT_WARNINGS


def test_usage_error_exit_code(capsys):
    assert run(["report"]) == EXIT_USAGE  # --in is required
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE


# Only ASCII digits are numbers, though int() reads other scripts' digits.
@pytest.mark.parametrize(
    "offset", ["+00:75", "+24:00", "+\u0661\u0662:\u0663\u0660", "+12:\u0663\u0660"]
)
def test_out_of_range_tz_is_a_usage_error(conversation_dir, capsys, offset):
    for command in ("diff", "report"):
        assert run([command, "--in", str(conversation_dir), "--tz", offset]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad timezone offset" in captured.err


# 393401234567 in Arabic-Indic digits, and with a superscript two; no digit at all
@pytest.mark.parametrize(
    "sim",
    [
        "+\u0663\u0669\u0663\u0664\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667",
        "39\u00b23401234567",
        "abc",
        "+",
    ],
)
def test_a_sim_digit_outside_ascii_is_a_usage_error(conversation_dir, tmp_path, capsys, sim):
    out = tmp_path / "report.json"
    argv = ["report", "--in", str(conversation_dir), "--out", str(out), "--sim", sim]
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs digits 0-9 and no other digit" in captured.err
    assert not out.exists()


def test_a_sim_number_may_keep_its_separators(conversation_dir, tmp_path):
    out = tmp_path / "report.json"
    sim = "+39 340-000.0001"  # the owner, 393400000001
    argv = ["report", "--in", str(conversation_dir), "--out", str(out), "--sim", sim]
    assert run(argv) == EXIT_OK
    findings = json.loads(out.read_text(encoding="utf-8"))["findings"]
    (identity,) = [f for f in findings if f["category"] == "identity_check"]
    assert identity["payload"]["match"] is True


# Every character that str.isdigit() takes, other than 0-9.
_OTHER_DIGITS = [
    c for c in map(chr, range(sys.maxunicode + 1)) if c.isdigit() and not "0" <= c <= "9"
]


@st.composite
def _texts_with_another_scripts_digit(draw) -> str:
    near = st.text(alphabet="0123456789+-: Zz_")  # the shapes the parsers accept
    head = draw(st.one_of(near, st.text()))
    tail = draw(st.one_of(near, st.text()))
    return head + draw(st.sampled_from(_OTHER_DIGITS)) + tail


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
@hypothesis.given(text=_texts_with_another_scripts_digit())
def test_only_ascii_digits_are_numbers(text):
    with pytest.raises(ValueError):
        model.ascii_int(text)
    with pytest.raises(ValueError):
        model.parse_tz_offset(text)
    # refused while the arguments are parsed, before the tree is looked at
    assert run(["report", "--in", "no-such-tree", f"--sim={text}"]) == EXIT_USAGE


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


def test_decrypt_refuses_to_overwrite_its_input(tmp_path, capsys):
    crypt = tmp_path / "x.crypt"
    crypt.write_bytes(encrypt_fixture(SQLITE_MAGIC + bytes(16)))
    before = crypt.read_bytes()
    link = tmp_path / "hard-link.db"
    os.link(crypt, link)
    for out in (crypt, tmp_path / "." / crypt.name, link):
        assert run(["decrypt", "--in", str(crypt), "--out", str(out)]) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err
    assert crypt.read_bytes() == before


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest"],
        ["report"],
        ["diff"],
        ["timeline"],
        ["timeline", "--format", "csv"],
    ],
    ids=["ingest", "report", "diff", "timeline", "timeline-csv"],
)
def test_an_output_inside_the_evidence_is_a_usage_error(conversation_dir, tmp_path, capsys, argv):
    media = conversation_dir / layout.MEDIA_DIR
    (tmp_path / "media-link").symlink_to(media)
    outs = [media / "report.json", media / ".." / "r.json", conversation_dir]
    outs.append(tmp_path / "media-link" / "report.json")
    before = ingest.snapshot_tree(conversation_dir)
    for out in outs:
        assert run([*argv, "--in", str(conversation_dir), "--out", str(out)]) == EXIT_USAGE, out
        assert "--out lies inside the evidence directory" in capsys.readouterr().err
    assert ingest.snapshot_tree(conversation_dir) == before
    beside = f"{conversation_dir}.json"  # shares a prefix with --in, not a directory
    assert run([*argv, "--in", str(conversation_dir), "--out", beside]) == EXIT_OK
    assert ingest.snapshot_tree(conversation_dir) == before


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
    assert code == EXIT_OK  # diff reads no chat list, so the dangling pointer is not seen
    assert doc["backups"][0]["recovered_count"] == 1
    assert doc["backups"][0]["recovered"][0]["data"] == "gone"


def test_a_deleted_broadcast_fanout_row_is_a_deleted_message(tmp_path, capsys):
    """The sibling rows of a fan-out share its key, yet the lost row is reported."""
    broadcast = helpers.broadcast_script()
    (sent,) = broadcast.actions
    script = forge.ScenarioScript(
        owner=broadcast.owner,
        actors=broadcast.actors,
        actions=(sent, forge.SnapshotBackup(at_ms=sent.at_ms + 60_000)),
    )
    root = forge.generate_bundle(script, tmp_path / "evidence").root
    lost = helpers.jid(helpers.BC_R1)
    _update(root / layout.MSGSTORE_DB, "DELETE FROM messages WHERE key_remote_jid = ?", (lost,))
    (backup,) = (root / layout.BACKUPS_DIR).glob("*.crypt")

    assert run(["diff", "--in", str(root)]) == EXIT_OK
    (listed,) = json.loads(capsys.readouterr().out)["backups"]
    assert listed["name"] == backup.name
    (row,) = listed["recovered"]
    assert row["conversation"] == lost

    out = tmp_path / "report.json"
    assert run(["report", "--in", str(root), "--out", str(out)]) == EXIT_WARNINGS
    doc = json.loads(out.read_text(encoding="utf-8"))
    (finding,) = [
        f
        for f in doc["findings"]
        if f["category"] == "deleted_message" and f["subject"] == row["key"]
    ]
    assert finding["payload"]["backups"] == [backup.name]


def test_diff_writes_non_ascii_text_verbatim(tmp_path):
    result = _deleted_after_backup(tmp_path, "caffè ☕")
    out = tmp_path / "diff.json"
    assert run(["diff", "--in", str(result.root), "--out", str(out)]) == EXIT_OK
    data = out.read_bytes()
    assert '"data": "caffè ☕"'.encode("utf-8") in data
    assert b"\\u" not in data


def test_diff_document_renders_times_in_the_display_offset(tmp_path):
    result = _deleted_after_backup(tmp_path, "gone")
    with ingest.Evidence(result.root) as evidence:
        doc = report_mod.diff_document(evidence.backups, evidence.live_pairs, 60)
    (backup,) = doc["backups"]
    assert backup["name"] == evidence.backups[0].name
    assert backup["recovered_count"] == 1
    (row,) = backup["recovered"]
    assert row["direction"] == "outgoing"
    assert row["timestamp"] == DELETED_AT
    assert row["timestamp_local"] == "2013-09-24 06:20:00.000 +01:00"


PAST_THE_CALENDAR_MS = 2**62  # a local time in a year after 9999


def _update(db: Path, sql: str, parameters=()) -> None:
    conn = sqlite3.connect(db)
    with conn:
        conn.execute(sql, parameters)
    conn.close()


def _set_first_row_times(db: Path, value: int) -> None:
    _update(
        db,
        "UPDATE messages SET timestamp = ?1, received_timestamp = ?1 "
        "WHERE _id = (SELECT min(_id) FROM messages)",
        (value,),
    )


def test_a_live_time_past_the_calendar_is_a_warning(conversation_dir, tmp_path, capsys):
    _set_first_row_times(conversation_dir / layout.MSGSTORE_DB, PAST_THE_CALENDAR_MS)
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(conversation_dir), "--out", str(out)]) == EXIT_WARNINGS
    report = json.loads(out.read_text(encoding="utf-8"))
    assert {
        "source": "msgstore.db:messages#1",
        "message": f"timestamp ({PAST_THE_CALENDAR_MS}) is past the year 9999; no local time",
    } in report["warnings"]
    capsys.readouterr()
    assert run(["timeline", "--in", str(conversation_dir)]) == EXIT_WARNINGS
    chats = json.loads(capsys.readouterr().out)["chats"]
    assert chats == report["conversations"]
    times = [m["effective"] for chat in chats for m in chat["messages"]]
    assert {"epoch_ms": PAST_THE_CALENDAR_MS, "local": None} in times
    assert run(["timeline", "--in", str(conversation_dir), "--format", "csv"]) == EXIT_WARNINGS
    (row,) = [r for r in capsys.readouterr().out.splitlines() if str(PAST_THE_CALENDAR_MS) in r]
    assert row.split(",")[2:4] == [str(PAST_THE_CALENDAR_MS), ""]


def test_a_backup_time_past_the_calendar_is_a_warning(tmp_path, capsys):
    root = _deleted_after_backup(tmp_path, "gone").root
    (crypt,) = (root / layout.BACKUPS_DIR).glob("*.crypt")
    plain = tmp_path / "backup.db"
    plain.write_bytes(decrypt_backup(crypt))
    _set_first_row_times(plain, PAST_THE_CALENDAR_MS)
    crypt.write_bytes(encrypt_fixture(plain.read_bytes()))
    assert run(["diff", "--in", str(root)]) == EXIT_WARNINGS
    (row,) = json.loads(capsys.readouterr().out)["backups"][0]["recovered"]
    assert row["timestamp"] == PAST_THE_CALENDAR_MS
    assert row["timestamp_local"] is None


def test_diff_reads_only_the_backups_and_the_live_pairs(tmp_path, monkeypatch):
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.SendText(
                at_ms=DELETED_AT, sender=helpers.OWNER, to=helpers.PARTNER, text="x", label="m"
            ),
            forge.SendMedia(at_ms=DELETED_AT + 30_000, sender=helpers.PARTNER, to=helpers.OWNER),
            forge.SnapshotBackup(at_ms=DELETED_AT + 60_000),
            forge.DeleteMessage(at_ms=DELETED_AT + 120_000, target="m"),
        ),
    )
    root = forge.generate_bundle(script, tmp_path / "evidence").root
    expected = tmp_path / "expected.json"
    assert run(["diff", "--in", str(root), "--out", str(expected)]) == EXIT_OK
    assert json.loads(expected.read_text(encoding="utf-8"))["backups"][0]["recovered_count"] == 1

    def forbidden(*args, **kwargs):
        raise AssertionError("diff reads no log, contact or chat-list row")

    for module, name in [
        (log_parser, "parse_log_file"),
        (log_parser, "parse_log_lines"),
        (ingest, "parse_log_file"),
        (db_reader, "load_contacts"),
        (db_reader, "load_chat_list"),
        (db_reader, "check_chat_list_consistency"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    load_messages = db_reader.load_messages

    def backup_messages_only(source, *args, **kwargs):
        assert not Path(source.path).is_relative_to(root), "diff decodes no live messages row"
        return load_messages(source, *args, **kwargs)

    monkeypatch.setattr(db_reader, "load_messages", backup_messages_only)
    unreadable = [root / layout.LOGS_DIR, root / layout.ME_FILE, root / layout.MEDIA_DIR]
    assert all(path.exists() for path in unreadable)
    _make_unreadable(monkeypatch, *unreadable)
    assert run(["report", "--in", str(root)]) == EXIT_ERROR  # the traps are armed
    out = tmp_path / "diff.json"
    assert run(["diff", "--in", str(root), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == expected.read_bytes()


def test_diff_exit_code_counts_only_what_diff_reads(conversation_dir):
    (conversation_dir / layout.WA_DB).unlink()
    (conversation_dir / layout.ME_FILE).unlink()
    shutil.rmtree(conversation_dir / layout.LOGS_DIR)
    assert run(["report", "--in", str(conversation_dir)]) == EXIT_WARNINGS
    assert run(["diff", "--in", str(conversation_dir)]) == EXIT_OK


@pytest.mark.parametrize("damage", ["truncated", "corrupt-page"])
def test_diff_warns_on_a_damaged_backup(tmp_path, capsys, damage):
    result = _three_backups(tmp_path)
    crypts = sorted((result.root / layout.BACKUPS_DIR).glob("*.crypt"))
    bad = crypts[1]
    if damage == "truncated":
        bad.write_bytes(bad.read_bytes()[:17])
    else:
        bad.write_bytes(encrypt_fixture(helpers.corrupt_page_2(decrypt_backup(bad))))
    assert run(["diff", "--in", str(result.root)]) == EXIT_WARNINGS
    doc = json.loads(capsys.readouterr().out)
    assert [b["name"] for b in doc["backups"]] == [crypts[0].name, crypts[2].name]


def _drop_backup_table(crypt: Path, tmp_path: Path, table: str) -> None:
    plain = tmp_path / f"{crypt.name}.db"
    plain.write_bytes(decrypt_backup(crypt))
    _update(plain, f"DROP TABLE {table}")
    crypt.write_bytes(encrypt_fixture(plain.read_bytes()))


def test_a_backup_without_a_chat_list_keeps_its_lost_rows(tmp_path, capsys):
    """No command reads a backup's chat list, so a backup lacking one is read like the rest."""
    result = _three_backups(tmp_path)
    assert run(["diff", "--in", str(result.root)]) == EXIT_OK
    intact = capsys.readouterr().out
    assert run(["report", "--in", str(result.root)]) == EXIT_WARNINGS
    intact_report = capsys.readouterr().out
    crypts = sorted((result.root / layout.BACKUPS_DIR).glob("*.crypt"))
    _drop_backup_table(crypts[1], tmp_path, "chat_list")
    assert run(["diff", "--in", str(result.root)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == intact
    recovered = {b["name"]: b["recovered_count"] for b in json.loads(out)["backups"]}
    assert sorted(recovered) == [c.name for c in crypts] and recovered[crypts[1].name] > 0
    assert run(["report", "--in", str(result.root)]) == EXIT_WARNINGS
    assert capsys.readouterr().out == intact_report


def test_a_backup_without_messages_is_skipped_with_a_warning(tmp_path, capsys):
    result = _three_backups(tmp_path)
    crypts = sorted((result.root / layout.BACKUPS_DIR).glob("*.crypt"))
    bad = crypts[1]
    _drop_backup_table(bad, tmp_path, "messages")
    assert run(["diff", "--in", str(result.root)]) == EXIT_WARNINGS
    doc = json.loads(capsys.readouterr().out)
    assert [b["name"] for b in doc["backups"]] == [crypts[0].name, crypts[2].name]
    assert run(["report", "--in", str(result.root)]) == EXIT_WARNINGS
    unreadable = [
        w
        for w in json.loads(capsys.readouterr().out)["warnings"]
        if w["source"] == f"{layout.BACKUPS_DIR}/{bad.name}"
    ]
    assert [w["message"] for w in unreadable] == [
        f"decrypted backup unreadable: {bad.name} lacks required table(s): messages"
    ]


def test_diff_without_a_chat_database_lists_every_backup_row(tmp_path, capsys):
    result = _three_backups(tmp_path)
    (result.root / layout.MSGSTORE_DB).unlink()
    assert run(["diff", "--in", str(result.root)]) == EXIT_WARNINGS
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["backups"]) == 3
    for backup in doc["backups"]:
        plain = tmp_path / backup["name"]
        plain.write_bytes(decrypt_backup(result.root / layout.BACKUPS_DIR / backup["name"]))
        conn = sqlite3.connect(plain)
        ids = [row[0] for row in conn.execute("SELECT _id FROM messages ORDER BY _id")]
        conn.close()
        assert ids
        assert [r["record_id"] for r in backup["recovered"]] == ids


def test_diff_on_a_corrupt_live_messages_table_is_a_tool_error(conversation_dir, capsys):
    msgstore = conversation_dir / layout.MSGSTORE_DB
    msgstore.write_bytes(helpers.corrupt_page_2(msgstore.read_bytes()))
    assert run(["diff", "--in", str(conversation_dir)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "table messages is damaged" in err
    assert "Traceback" not in err


def _committed_wal(db: Path, tmp_path: Path) -> bytes:
    """A write-ahead log holding one committed transaction, made on a copy of ``db``."""
    copy = tmp_path / f"wal-of-{db.name}"
    shutil.copyfile(db, copy)
    conn = sqlite3.connect(copy)
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("CREATE TABLE committed_after_the_checkpoint (x)")
        conn.commit()
        return Path(f"{copy}-wal").read_bytes()
    finally:
        conn.close()


@pytest.mark.parametrize("store", [layout.MSGSTORE_DB, layout.WA_DB], ids=["msgstore", "wa"])
def test_an_unread_write_ahead_log_is_a_warning(conversation_dir, tmp_path, store):
    wal = conversation_dir / f"{store}-wal"
    wal.touch()  # an empty log holds no rows
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(conversation_dir), "--out", str(out)]) == EXIT_OK
    wal.write_bytes(_committed_wal(conversation_dir / store, tmp_path))
    assert run(["report", "--in", str(conversation_dir), "--out", str(out)]) == EXIT_WARNINGS
    (warning,) = json.loads(out.read_text(encoding="utf-8"))["warnings"]
    assert warning["source"] == f"{store}-wal"
    assert "rows committed after the last checkpoint are not read" in warning["message"]
    # diff reads msgstore.db only.
    expected = EXIT_WARNINGS if store == layout.MSGSTORE_DB else EXIT_OK
    assert run(["diff", "--in", str(conversation_dir), "--out", str(out)]) == expected


def _spilled_transaction(db: Path, tmp_path: Path) -> tuple[bytes, bytes]:
    """A copy of ``db`` and its rollback journal, taken in an unfinished transaction.

    With a one-page cache the transaction's changes spill into the
    database file before it commits, so the journal is hot.
    """
    copy = tmp_path / f"spilled-{db.name}"
    shutil.copyfile(db, copy)
    conn = sqlite3.connect(copy, isolation_level=None)
    try:
        conn.execute("PRAGMA cache_size=1")
        conn.execute("BEGIN")
        conn.execute("CREATE TABLE unfinished (x)")
        conn.executemany("INSERT INTO unfinished VALUES (?)", [(bytes(500),)] * 200)
        return copy.read_bytes(), Path(f"{copy}-journal").read_bytes()
    finally:
        conn.close()  # rolls the copy back


@pytest.mark.parametrize("store", [layout.MSGSTORE_DB, layout.WA_DB], ids=["msgstore", "wa"])
def test_a_hot_rollback_journal_is_a_warning(conversation_dir, tmp_path, store):
    out = tmp_path / "report.json"
    journal = conversation_dir / f"{store}-journal"
    journal.touch()  # an empty journal holds no transaction
    assert run(["report", "--in", str(conversation_dir), "--out", str(out)]) == EXIT_OK
    journal.write_bytes(bytes(512))  # a persisted journal, its header zeroed by the commit
    assert run(["report", "--in", str(conversation_dir), "--out", str(out)]) == EXIT_OK
    database, hot = _spilled_transaction(conversation_dir / store, tmp_path)
    assert database != (conversation_dir / store).read_bytes()
    (conversation_dir / store).write_bytes(database)
    journal.write_bytes(hot)
    assert run(["report", "--in", str(conversation_dir), "--out", str(out)]) == EXIT_WARNINGS
    (warning,) = json.loads(out.read_text(encoding="utf-8"))["warnings"]
    assert warning["source"] == f"{store}-journal"
    assert "changes of an unfinished transaction" in warning["message"]
    # timeline and diff read msgstore.db only.
    expected = EXIT_WARNINGS if store == layout.MSGSTORE_DB else EXIT_OK
    for command in ("timeline", "diff"):
        assert run([command, "--in", str(conversation_dir), "--out", str(out)]) == expected


@pytest.mark.parametrize("store", [layout.MSGSTORE_DB, layout.WA_DB], ids=["msgstore", "wa"])
def test_an_unreadable_rollback_journal_is_a_warning(
    conversation_dir, tmp_path, monkeypatch, store
):
    journal = conversation_dir / f"{store}-journal"
    journal.write_bytes(bytes(512))
    _make_unreadable(monkeypatch, journal)
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(conversation_dir), "--out", str(out)]) == EXIT_WARNINGS
    (warning,) = json.loads(out.read_text(encoding="utf-8"))["warnings"]
    assert warning["source"] == f"{store}-journal"
    assert warning["message"].startswith("rollback journal not read: [Errno 13] Permission denied")
    assert str(conversation_dir) not in warning["message"]
    assert run(["ingest", "--in", str(conversation_dir)]) == EXIT_WARNINGS
    # timeline and diff read msgstore.db only.
    expected = EXIT_WARNINGS if store == layout.MSGSTORE_DB else EXIT_OK
    for command in ("timeline", "diff"):
        assert run([command, "--in", str(conversation_dir), "--out", str(out)]) == expected


def test_diff_takes_no_grammar(conversation_dir, tmp_path, capsys):
    grammar = tmp_path / "grammar.json"
    grammar.write_text("{}", encoding="utf-8")
    assert run(["diff", "--in", str(conversation_dir), "--grammar", str(grammar)]) == EXIT_USAGE
    assert "--grammar" in capsys.readouterr().err


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
    # The deletion leaves a dangling chat-list pointer, which only ingest and report read.
    expected = EXIT_WARNINGS if argv[0] in ("ingest", "report") else EXIT_OK
    assert to_stdout.returncode == to_file.returncode == expected, to_stdout.stderr
    assert to_stdout.stdout == out.read_bytes()
    if argv != ["ingest"]:
        assert text.encode("utf-8") in to_stdout.stdout


# Run as ``python -c PROBE ARGV...``: the command's exit code, then which of
# three start-up costs it imported (what the interpreter had loaded before
# is not counted).
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
from wadroid.cli import run
code = run(sys.argv[1:])
print(code, *sorted({"dataclasses", "inspect", "cryptography"} & (set(sys.modules) - before)))
"""


def _imported(argv: list[str]) -> tuple[int, list[str]]:
    env = {**os.environ, "PYTHONPATH": str(Path(wadroid.__file__).parents[1])}
    command = [sys.executable, "-c", _IMPORT_PROBE, *argv]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    code, *imported = result.stdout.split()
    return int(code), imported


@pytest.mark.parametrize(
    "argv",
    [["report"], ["timeline", "--format", "csv"], ["diff"], ["ingest"]],
    ids=["report", "timeline-csv", "diff", "ingest"],
)
def test_no_command_imports_dataclasses_or_inspect(tmp_path, argv):
    root = _deleted_after_backup(tmp_path, "text").root
    code, imported = _imported([*argv, "--in", str(root), "--out", str(tmp_path / "out")])
    assert code in (EXIT_OK, EXIT_WARNINGS)
    assert not {"dataclasses", "inspect"} & set(imported)


def test_report_without_backups_does_not_import_cryptography(conversation_dir, tmp_path):
    argv = ["report", "--in", str(conversation_dir), "--out", str(tmp_path / "report.json")]
    assert _imported(argv) == (EXIT_OK, [])


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


# The deletions leave dangling chat-list pointers, which diff does not read.
@pytest.mark.parametrize(
    "command, code, connects",
    [("report", EXIT_WARNINGS, 5), ("diff", EXIT_OK, 4)],
    ids=["report", "diff"],
)
def test_each_database_is_connected_once_and_no_file_is_written(
    tmp_path, monkeypatch, command, code, connects
):
    root = _three_backups(tmp_path).root
    temp_dir = tmp_path / "temp"
    temp_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
    connected = []
    real_connect = sqlite3.connect

    def connect(database, *args, **kwargs):
        connected.append(database)
        return real_connect(database, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", connect)
    out = tmp_path / "out.json"
    assert run([command, "--in", str(root), "--out", str(out)]) == code
    # wa.db (report only), msgstore.db and each of the three backups, in memory.
    assert len(connected) == connects
    assert connected.count(":memory:") == 3
    assert list(temp_dir.iterdir()) == []


@pytest.mark.parametrize("damaged", [False, True], ids=["clean", "damaged-msgstore"])
@pytest.mark.parametrize("command", ["ingest", "report", "timeline", "diff"])
def test_every_connection_is_closed_when_the_command_ends(tmp_path, monkeypatch, command, damaged):
    root = _three_backups(tmp_path).root
    if damaged:
        msgstore = root / layout.MSGSTORE_DB
        msgstore.write_bytes(helpers.corrupt_page_2(msgstore.read_bytes()))
    connections = []
    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        connections.append(real_connect(*args, **kwargs))
        return connections[-1]

    monkeypatch.setattr(sqlite3, "connect", connect)
    code = run([command, "--in", str(root), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR if damaged else code in (EXIT_OK, EXIT_WARNINGS)
    assert connections
    for connection in connections:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            connection.execute("SELECT 1")


def test_a_backup_in_wal_mode_is_read(tmp_path):
    root = _three_backups(tmp_path).root
    expected, out = tmp_path / "expected.json", tmp_path / "out.json"
    assert run(["report", "--in", str(root), "--out", str(expected)]) == EXIT_WARNINGS
    for crypt in (root / layout.BACKUPS_DIR).glob("*.crypt"):
        plain = bytearray(decrypt_backup(crypt))
        plain[18:20] = b"\x02\x02"  # the file format versions of a WAL-mode database
        crypt.write_bytes(encrypt_fixture(bytes(plain)))
    assert run(["report", "--in", str(root), "--out", str(out)]) == EXIT_WARNINGS
    assert out.read_bytes() == expected.read_bytes()


def test_corrupt_live_database_is_a_tool_error(conversation_dir, capsys):
    msgstore = conversation_dir / layout.MSGSTORE_DB
    msgstore.write_bytes(helpers.corrupt_page_2(msgstore.read_bytes()))
    assert run(["report", "--in", str(conversation_dir)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


_NO_ID_SCHEMA = """
CREATE TABLE wa_contacts (jid TEXT, display_name TEXT);
CREATE TABLE messages (key_remote_jid TEXT, key_id TEXT, data TEXT);
CREATE TABLE chat_list (key_remote_jid TEXT, message_table_id INTEGER);
"""


def test_tables_without_id_are_read_in_rowid_order(tmp_path):
    root = tmp_path / "evidence"
    (root / layout.MSGSTORE_DB).parent.mkdir(parents=True)
    partner = helpers.jid(helpers.PARTNER)
    helpers.build_db(root / layout.MSGSTORE_DB, _NO_ID_SCHEMA, {
        "messages": [
            {"key_remote_jid": partner, "key_id": "1381932937-1", "data": "first"},
            {"key_remote_jid": partner, "key_id": "malformed", "data": "second"},
        ],
        "chat_list": [{"key_remote_jid": partner, "message_table_id": 2}],
    })
    helpers.build_db(root / layout.WA_DB, _NO_ID_SCHEMA, {
        "wa_contacts": [{"jid": partner, "display_name": "Partner"}],
    })
    bundle = ingest.load_case_bundle(root)
    assert [(m.id, m.data) for m in bundle.messages] == [(0, "first"), (0, "second")]
    assert [c.jid.raw for c in bundle.contacts] == [partner]
    # A row without an _id is named by its rowid.
    (warning,) = [w for w in bundle.warnings if "malformed key_id" in w.message]
    assert warning.source == "msgstore.db:messages#2"
    outputs = []
    for n in range(2):
        out = tmp_path / f"report-{n}.json"
        assert run(["report", "--in", str(root), "--out", str(out)]) in (EXIT_OK, EXIT_WARNINGS)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["bundle_summary"]["messages"] == 2
    assert run(["timeline", "--in", str(root)]) in (EXIT_OK, EXIT_WARNINGS)


_WITHOUT_ROWID_SCHEMA = """
CREATE TABLE messages (key_remote_jid TEXT, key_id TEXT, data TEXT,
                       PRIMARY KEY (key_remote_jid, key_id)) WITHOUT ROWID;
CREATE TABLE chat_list (key_remote_jid TEXT, message_table_id INTEGER);
"""


def test_without_rowid_tables_are_read_in_primary_key_order(tmp_path):
    root = tmp_path / "evidence"
    for directory in (layout.BACKUPS_DIR, Path(layout.MSGSTORE_DB).parent):
        (root / directory).mkdir(parents=True, exist_ok=True)
    partner = helpers.jid(helpers.PARTNER)
    kept = {"key_remote_jid": partner, "key_id": "1381932937-2", "data": "kept"}
    helpers.build_db(root / layout.MSGSTORE_DB, _WITHOUT_ROWID_SCHEMA, {
        "messages": [kept, {"key_remote_jid": partner, "key_id": "malformed", "data": "odd"}],
        "chat_list": [{"key_remote_jid": partner, "message_table_id": 1}],
    })
    backup = helpers.build_db(tmp_path / "backup.db", _WITHOUT_ROWID_SCHEMA, {
        "messages": [
            {"key_remote_jid": partner, "key_id": "1381932937-3", "data": "lost"},
            kept,
            {"key_remote_jid": partner, "key_id": "1381932937-1", "data": "lost first"},
        ],
    })
    crypt = root / layout.BACKUPS_DIR / "msgstore-2013-10-16.1.db.crypt"
    crypt.write_bytes(encrypt_fixture(backup.read_bytes()))
    bundle = ingest.load_case_bundle(root)
    # Primary-key order, and each row named by its position in it.
    assert [m.data for m in bundle.messages] == ["kept", "odd"]
    (warning,) = [w for w in bundle.warnings if "malformed key_id" in w.message]
    assert warning.source == "msgstore.db:messages#2"
    (recovered,) = bundle.backups
    assert [m.data for m in recovered.messages] == ["lost first", "lost"]
    with ingest.Evidence(root) as evidence:
        live_pairs = evidence.live_pairs
        assert evidence.backups == bundle.backups
    assert live_pairs == {(m.key_remote_jid.raw, m.key_id_raw) for m in bundle.messages}
    for argv in (
        ["ingest", "--in", str(root)],
        ["report", "--in", str(root), "--out", str(tmp_path / "report.json")],
        ["timeline", "--in", str(root)],
        ["diff", "--in", str(root), "--out", str(tmp_path / "diff.json")],
    ):
        assert run(argv) in (EXIT_OK, EXIT_WARNINGS), argv
    doc = json.loads((tmp_path / "diff.json").read_text(encoding="utf-8"))
    assert [row["data"] for row in doc["backups"][0]["recovered"]] == ["lost first", "lost"]


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


def test_an_unknown_media_type_is_kept_as_text_with_one_warning(
    conversation_dir, tmp_path, capsys
):
    msgstore = conversation_dir / layout.MSGSTORE_DB
    _update(msgstore, "UPDATE messages SET media_wa_type = 9 WHERE _id = 1")
    out = tmp_path / "report.json"
    argv = ["--in", str(conversation_dir)]
    assert run(["report", *argv, "--out", str(out)]) == EXIT_WARNINGS
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["warnings"] == [
        {"source": "messages:_id=1", "message": "unknown media_wa_type 9; kept as text"}
    ]
    messages = doc["conversations"][0]["messages"]
    (message,) = [m for m in messages if m["record_id"] == 1]
    assert message["content"] == {"type": "text", "text": "Message 1"}
    capsys.readouterr()
    assert run(["timeline", *argv]) == EXIT_WARNINGS
    assert json.loads(capsys.readouterr().out)["chats"] == doc["conversations"]
    assert run(["timeline", *argv, "--format", "csv"]) == EXIT_WARNINGS
    timeline_csv = capsys.readouterr().out
    (row,) = [r for r in csv.reader(timeline_csv.splitlines()) if r[5] == message["key"]]
    assert row[6] == "text:Message 1"


def test_media_hashed_in_chunks(conversation_dir):
    content = random.Random(5).randbytes(2 * model.MEDIA_HASH_CHUNK + 1)
    video = conversation_dir / layout.MEDIA_DIR / "WhatsApp Video" / "big.mp4"
    video.parent.mkdir(parents=True, exist_ok=True)
    video.write_bytes(content)
    bundle = ingest.load_case_bundle(conversation_dir)
    (media,) = [m for m in bundle.media_inventory if m.path.endswith("big.mp4")]
    assert media.size_bytes == len(content)
    assert "sha256" not in vars(media)  # listed at ingest, hashed on first use
    assert media.sha256 == hashlib.sha256(content).hexdigest()


def _media_device(root: Path, image_bytes: int) -> Path:
    """A device that sent two images and received two, of ``image_bytes`` each."""
    peers = (helpers.OWNER, helpers.PARTNER)
    rng = random.Random(7)
    actions = tuple(
        forge.SendMedia(
            at_ms=helpers.CONV_IN_1 + i * 60_000,
            sender=peers[i % 2],
            to=peers[1 - i % 2],
            media_kind="image",
            content=rng.randbytes(image_bytes),
        )
        for i in range(4)
    )
    script = forge.ScenarioScript(owner=helpers.OWNER, actors=peers, actions=actions)
    return forge.generate_bundle(script, root).root


@pytest.fixture()
def media_root(tmp_path):
    """Four images of 2 MiB + 1 bytes: more than 8 MiB of media to hash in all."""
    return _media_device(tmp_path / "evidence", (2 << 20) + 1)


def _media_paths(root: Path) -> list[str]:
    return sorted(
        p.relative_to(root).as_posix() for p in (root / layout.MEDIA_DIR).rglob("*") if p.is_file()
    )


def _trap_forks(monkeypatch) -> None:
    def trapped():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", trapped)


def _count_media_hashing(monkeypatch, root: Path) -> collections.Counter:
    """Count how often each file is hashed, by path relative to ``root``."""
    hashed = collections.Counter()
    file_sha256 = model.file_sha256

    def counted(path):
        hashed[Path(path).relative_to(root).as_posix()] += 1
        return file_sha256(path)

    monkeypatch.setattr(model, "file_sha256", counted)
    return hashed


def _make_unreadable(monkeypatch, *paths: Path) -> None:
    """Opening any of ``paths``, or any file under them, raises PermissionError."""
    real_open = io.open

    def guarded_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and any(
            Path(file).is_relative_to(path) for path in paths
        ):
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded_open)
    monkeypatch.setattr(io, "open", guarded_open)


@pytest.mark.parametrize(
    "argv",
    [["diff"], ["timeline", "--format", "json"], ["timeline", "--format", "csv"], ["ingest"]],
    ids=["diff", "timeline-json", "timeline-csv", "ingest"],
)
def test_only_report_reads_media(media_root, monkeypatch, capsys, argv):
    """No other command forks, opens a media file or hashes one."""
    _trap_forks(monkeypatch)
    hashed = _count_media_hashing(monkeypatch, media_root)
    _make_unreadable(monkeypatch, media_root / layout.MEDIA_DIR)
    assert run([argv[0], "--in", str(media_root), *argv[1:]]) == EXIT_OK
    assert capsys.readouterr().out
    assert not hashed


def test_report_hashes_each_media_file_once(media_root, monkeypatch, tmp_path):
    """In the command itself, with no process forked, and every file is linked."""
    _trap_forks(monkeypatch)
    _assert_report_hashes_each_media_file_once(media_root, monkeypatch, tmp_path)


def test_report_hashes_each_media_file_once_without_fork(media_root, monkeypatch, tmp_path):
    """A platform without ``os.fork`` runs ``report`` the same way."""
    monkeypatch.delattr(os, "fork")
    _assert_report_hashes_each_media_file_once(media_root, monkeypatch, tmp_path)


def _assert_report_hashes_each_media_file_once(root: Path, monkeypatch, tmp_path) -> None:
    hashed = _count_media_hashing(monkeypatch, root)
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(root), "--out", str(out)]) == EXIT_OK
    media = _media_paths(root)
    assert len(media) == 4
    assert dict(hashed) == {path: 1 for path in media}
    findings = json.loads(out.read_text(encoding="utf-8"))["findings"]
    local = {f["payload"]["path"] for f in findings if f["payload"].get("match") == "local-file"}
    assert local == set(media)


def test_unreadable_media_is_an_io_error(media_root, monkeypatch, tmp_path, capsys):
    victim = _media_paths(media_root)[1]
    _make_unreadable(monkeypatch, media_root / victim)
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(media_root), "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and victim in err
    assert not out.exists()


def test_report_on_unreadable_media_is_an_io_error(media_root, monkeypatch, tmp_path, capsys):
    _make_unreadable(monkeypatch, media_root / layout.MEDIA_DIR)
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(media_root), "--out", str(out)]) == EXIT_ERROR
    assert "i/o error" in capsys.readouterr().err


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


def test_only_report_counts_a_broadcast_recipient_count_mismatch(tmp_path, capsys):
    root = forge.generate_bundle(helpers.broadcast_script(), tmp_path / "evidence").root
    _update(
        root / layout.MSGSTORE_DB,
        "UPDATE messages SET recipient_count = 5 WHERE recipient_count IS NOT NULL",
    )
    out = tmp_path / "report.json"
    assert run(["report", "--in", str(root), "--out", str(out)]) == EXIT_WARNINGS
    warnings = json.loads(out.read_text(encoding="utf-8"))["warnings"]
    assert [w["message"] for w in warnings] == [
        "broadcast stores 3 recipient rows but recipient_count=5 (evidence may be partial)"
    ]
    for fmt in ("csv", "json"):
        assert run(["timeline", "--in", str(root), "--format", fmt]) == EXIT_OK


def _full_device(root: Path) -> Path:
    """A clean device holding every artifact: a contact, chats, a group, media, a backup."""
    group_at = helpers.CONV_OUT_2 + 60_000
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.AddContact(at_ms=helpers.CONV_IN_1 - 60_000, number=helpers.PARTNER),
            *helpers.conversation_script().actions,
            forge.SendMedia(at_ms=group_at - 30_000, sender=helpers.PARTNER, to=helpers.OWNER),
            forge.CreateGroup(at_ms=group_at, name="wa test group", label="g"),
            forge.AddToGroup(at_ms=group_at + 1000, group="g", member=helpers.PARTNER),
            forge.SnapshotBackup(at_ms=group_at + 60_000),
        ),
    )
    return forge.generate_bundle(script, root).root


def _append_log_line(root: Path, line: str) -> None:
    with (root / layout.MAIN_LOG).open("a", encoding="utf-8") as log:
        log.write(line + "\n")


_A_GROUP = f"{helpers.OWNER}-1329116620@g.us"


def _truncate_backup(root: Path) -> None:
    (crypt,) = (root / layout.BACKUPS_DIR).glob("*.crypt")
    crypt.write_bytes(crypt.read_bytes()[:17])


# Each damage, and the exit code of ingest, report, timeline and diff after it.
_EXIT_CONTRACT = {
    "contact-jid": (
        lambda root, tmp_path: _update(
            root / layout.WA_DB,
            "UPDATE wa_contacts SET jid = 'not a jid' WHERE _id = (SELECT min(_id) FROM wa_contacts)",
        ),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK, EXIT_OK),
    ),
    "chat-list-pointer": (
        lambda root, tmp_path: _update(
            root / layout.MSGSTORE_DB, "UPDATE chat_list SET message_table_id = 9999"
        ),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK, EXIT_OK),
    ),
    "me-file": (
        lambda root, tmp_path: (root / layout.ME_FILE).write_bytes(b"\x00\xff"),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK, EXIT_OK),
    ),
    "log-key": (
        lambda root, tmp_path: _append_log_line(
            root, log_parser.format_line(helpers.CONV_OUT_2, log_parser.body_message_deleted("bad"))
        ),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK, EXIT_OK),
    ),
    "group-log-date": (
        lambda root, tmp_path: _append_log_line(
            root,
            "2013-02-30 10:00:00.000 +0000 "
            + log_parser.body_group_member_left(_A_GROUP, helpers.jid(helpers.PARTNER)),
        ),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK),
    ),
    "message-key": (
        lambda root, tmp_path: _update(
            root / layout.MSGSTORE_DB,
            "UPDATE messages SET key_id = 'not a key' WHERE _id = (SELECT min(_id) FROM messages)",
        ),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK),
    ),
    "wa-wal": (
        lambda root, tmp_path: Path(f"{root / layout.WA_DB}-wal").write_bytes(
            _committed_wal(root / layout.WA_DB, tmp_path)
        ),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK, EXIT_OK),
    ),
    "msgstore-wal": (
        lambda root, tmp_path: Path(f"{root / layout.MSGSTORE_DB}-wal").write_bytes(
            _committed_wal(root / layout.MSGSTORE_DB, tmp_path)
        ),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_WARNINGS, EXIT_WARNINGS),
    ),
    "backup": (
        lambda root, tmp_path: _truncate_backup(root),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_WARNINGS, EXIT_WARNINGS),
    ),
    "log-unreadable": (
        lambda root, tmp_path: (root / layout.LOGS_DIR / "whatsapp-old.log").mkdir(),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK),
    ),
    "no-wa.db": (
        lambda root, tmp_path: (root / layout.WA_DB).unlink(),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK, EXIT_OK),
    ),
    "no-chat_list": (
        lambda root, tmp_path: _update(root / layout.MSGSTORE_DB, "DROP TABLE chat_list"),
        (EXIT_ERROR, EXIT_ERROR, EXIT_OK, EXIT_OK),
    ),
    "no-msgstore.db": (
        lambda root, tmp_path: (root / layout.MSGSTORE_DB).unlink(),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_WARNINGS, EXIT_WARNINGS),
    ),
    "no-logs": (
        lambda root, tmp_path: shutil.rmtree(root / layout.LOGS_DIR),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK),
    ),
    "no-me": (
        lambda root, tmp_path: (root / layout.ME_FILE).unlink(),
        (EXIT_WARNINGS, EXIT_WARNINGS, EXIT_OK, EXIT_OK),
    ),
}


@pytest.mark.parametrize("command", ["ingest", "report", "timeline", "diff"])
@pytest.mark.parametrize("damage", list(_EXIT_CONTRACT))
def test_exit_code_counts_the_warnings_about_what_the_command_reads(tmp_path, damage, command):
    root = _full_device(tmp_path / "evidence")
    argv = [command, "--in", str(root), "--out", str(tmp_path / "out")]
    assert run(argv) == EXIT_OK
    harm, codes = _EXIT_CONTRACT[damage]
    harm(root, tmp_path)
    expected = dict(zip(["ingest", "report", "timeline", "diff"], codes))[command]
    assert run(argv) == expected


@pytest.mark.parametrize("cause", ["directory", "permission"])
def test_an_unreadable_log_file_is_a_warning(tmp_path, monkeypatch, capsys, cause):
    """The other log files are still parsed, and a command that reads no log does not warn."""
    root = _full_device(tmp_path / "evidence")
    clean = {}
    for command in ("report", "timeline"):
        assert run([command, "--in", str(root)]) == EXIT_OK
        clean[command] = json.loads(capsys.readouterr().out)
    unreadable = root / layout.LOGS_DIR / "whatsapp-old.log"
    if cause == "directory":
        unreadable.mkdir()
    else:
        shutil.copy(root / layout.MAIN_LOG, unreadable)
        _make_unreadable(monkeypatch, unreadable)
    assert run(["report", "--in", str(root)]) == EXIT_WARNINGS
    report = json.loads(capsys.readouterr().out)
    (warning,) = report["warnings"]
    assert warning["source"] == f"{layout.LOGS_DIR}/whatsapp-old.log"
    assert warning["message"].startswith("log file not read: ")
    assert report["bundle_summary"] == clean["report"]["bundle_summary"]
    assert run(["timeline", "--in", str(root)]) == EXIT_WARNINGS
    assert json.loads(capsys.readouterr().out) == clean["timeline"]
    assert run(["diff", "--in", str(root)]) == EXIT_OK


def test_a_report_does_not_depend_on_where_the_evidence_lies(tmp_path, monkeypatch):
    """Warnings about a file that cannot be read name it relative to the evidence root only."""
    root = _full_device(tmp_path / "evidence")
    (root / layout.LOGS_DIR / "whatsapp-old.log").mkdir()
    (root / layout.BACKUPS_DIR / "msgstore-2099-01-01.1.db.crypt").mkdir()
    monkeypatch.chdir(tmp_path)
    reports = []
    for evidence in ("evidence", str(root)):
        out = tmp_path / f"report-{len(reports)}.json"
        assert run(["report", "--in", evidence, "--out", str(out)]) == EXIT_WARNINGS
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    messages = [w["message"] for w in json.loads(reports[0])["warnings"]]
    assert [m.split(": ")[0] for m in messages] == ["backup not decrypted", "log file not read"]


def _record_calls(monkeypatch, module, name: str) -> collections.Counter:
    """Count the calls of ``module.name`` by their first argument."""
    calls = collections.Counter()
    real = getattr(module, name)

    def recorded(first, *args, **kwargs):
        calls[str(first)] += 1
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


_READS = [
    (db_reader, "open_source"),
    (ingest, "parse_log_file"),
    (ingest, "decrypt_backup"),
    (ingest, "_list_media"),
]


def test_evidence_reads_nothing_when_opened(tmp_path, monkeypatch):
    root = _full_device(tmp_path / "evidence")
    calls = [_record_calls(monkeypatch, module, name) for module, name in _READS]
    with ingest.Evidence(root) as evidence:
        assert evidence.warnings == []
    assert not any(calls)


def test_report_reads_each_artifact_once(tmp_path, monkeypatch):
    root = _full_device(tmp_path / "evidence")
    shutil.copy(root / layout.MAIN_LOG, root / layout.LOGS_DIR / "whatsapp-2013-01-01.1.log")
    opened, parsed, decrypted, listed = (
        _record_calls(monkeypatch, module, name) for module, name in _READS
    )
    pairs = _record_calls(monkeypatch, db_reader, "load_message_pairs")
    assert run(["report", "--in", str(root), "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert not pairs  # the live pairs are those of the messages read
    logs = sorted((root / layout.LOGS_DIR).glob("*.log"))
    crypts = sorted((root / layout.BACKUPS_DIR).glob("*.crypt"))
    assert len(logs) == 2 and crypts
    assert parsed == {str(path): 1 for path in logs}
    assert decrypted == {str(path): 1 for path in crypts}
    assert listed == {str(root): 1}
    assert opened == {
        str(root / layout.WA_DB): 1,
        str(root / layout.MSGSTORE_DB): 1,
        **{path.name: 1 for path in crypts},
    }


def test_group_events_are_taken_from_the_log_events_read(tmp_path, monkeypatch):
    root = _full_device(tmp_path / "evidence")
    with ingest.Evidence(root) as narrow:
        expected = narrow.group_events
    assert expected
    parsed = _record_calls(monkeypatch, ingest, "parse_log_file")
    with ingest.Evidence(root) as evidence:
        events = evidence.log_events
        assert sum(parsed.values()) == 1
        assert evidence.group_events == expected
        assert sum(parsed.values()) == 1
    assert set(expected) < set(events)


@pytest.mark.parametrize(
    "order", [("log_events", "group_events"), ("group_events", "log_events")], ids=["log", "group"]
)
def test_each_log_line_is_warned_about_once(tmp_path, order):
    root = _full_device(tmp_path / "evidence")
    _append_log_line(
        root,
        "2013-02-30 10:00:00.000 +0000 "
        + log_parser.body_group_member_left(_A_GROUP, helpers.jid(helpers.PARTNER)),
    )
    _append_log_line(root, "not a log line")
    _append_log_line(
        root, log_parser.format_line(helpers.CONV_OUT_2, log_parser.body_message_deleted("bad"))
    )
    (root / layout.LOGS_DIR / "whatsapp-old.log").mkdir()
    with ingest.Evidence(root) as evidence:
        assert evidence.log_events
        expected = evidence.warnings
    assert len(expected) == 5 == len(set(expected))
    with ingest.Evidence(root) as evidence:
        for name in order:
            assert getattr(evidence, name)
    if order[0] == "log_events":
        assert evidence.warnings == expected
    else:
        assert sorted(evidence.warnings) == sorted(expected)


@pytest.mark.parametrize(
    "order",
    [
        ("log_events",),
        ("group_events",),
        ("log_events", "group_events"),
        ("group_events", "log_events"),
    ],
    ids=["log", "group", "log-then-group", "group-then-log"],
)
def test_missing_logs_are_warned_about_once(tmp_path, order):
    root = _full_device(tmp_path / "evidence")
    shutil.rmtree(root / layout.LOGS_DIR)
    with ingest.Evidence(root) as evidence:
        for name in order:
            assert getattr(evidence, name) == ()
    assert [w.source for w in evidence.warnings] == [layout.LOGS_DIR]


def test_timeline_reads_only_the_chat_store_the_backups_and_the_logs(tmp_path, monkeypatch):
    root = _full_device(tmp_path / "evidence")
    expected = {fmt: tmp_path / f"expected.{fmt}" for fmt in ("json", "csv")}
    for fmt, out in expected.items():
        assert run(["timeline", "--in", str(root), "--format", fmt, "--out", str(out)]) == EXIT_OK

    def forbidden(*args, **kwargs):
        raise AssertionError("timeline reads no contact or chat-list row")

    for name in ("load_contacts", "load_chat_list", "check_chat_list_consistency"):
        monkeypatch.setattr(db_reader, name, forbidden)
    (root / layout.WA_DB).write_bytes(b"not a database")
    unreadable = [
        root / layout.MEDIA_DIR,
        root / layout.AVATARS_DIR,
        root / layout.PROFILE_PICTURES_DIR,
        root / layout.ME_FILE,
    ]
    assert all(path.exists() for path in unreadable)
    _make_unreadable(monkeypatch, *unreadable)
    real_scandir = os.scandir

    def guarded_scandir(path="."):
        if any(Path(path).is_relative_to(p) for p in unreadable):
            raise PermissionError(13, "Permission denied", str(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", guarded_scandir)
    assert run(["report", "--in", str(root)]) == EXIT_ERROR  # the traps are armed
    for fmt, path in expected.items():
        out = tmp_path / f"out.{fmt}"
        assert run(["timeline", "--in", str(root), "--format", fmt, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == path.read_bytes()


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


def test_forge_refuses_a_used_output_directory(tmp_path, capsys):
    base = 1380000000000
    sent = forge.SendText(
        at_ms=base, sender=helpers.OWNER, to=helpers.PARTNER, text="from scenario A"
    )
    first = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(sent, forge.SnapshotBackup(at_ms=base + 60_000)),
    )
    second = forge.ScenarioScript(
        owner=helpers.OWNER, actors=(helpers.OWNER, helpers.PARTNER), actions=(sent,)
    )
    out_dir = tmp_path / "bundle"
    out_dir.mkdir()  # an existing empty directory is accepted
    for name, script in (("a.json", first), ("b.json", second)):
        (tmp_path / name).write_text(forge.script_to_json(script), "utf-8")
    assert run(["forge", "--script", str(tmp_path / "a.json"), "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    before = ingest.snapshot_tree(out_dir)

    assert run(["forge", "--script", str(tmp_path / "b.json"), "--out", str(out_dir)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not an empty directory" in captured.err
    with pytest.raises(StructuralError):
        forge.generate_bundle(second, out_dir)
    assert ingest.snapshot_tree(out_dir) == before


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
_LATE_AT = {"at": "2013-01-01 00:00:00 +24:00", "do": "unblock_all"}


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
        (json.dumps({**_OWNER_ONLY, "actors": ["1"], "tz": "+00:75"}), "'tz' or 'seed'"),
        (json.dumps({**_OWNER_ONLY, "actors": ["1"], "actions": [_LATE_AT]}), "action time"),
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
        "tz-minutes-out-of-range",
        "at-hours-out-of-range",
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


def test_only_a_file_is_an_avatar(conversation_dir, tmp_path, capsys):
    """A directory or a dangling link named like an avatar is none; a link to a file is one."""
    assert run(["report", "--in", str(conversation_dir)]) == EXIT_OK
    clean = capsys.readouterr().out
    avatars = conversation_dir / layout.AVATARS_DIR
    avatars.mkdir(parents=True, exist_ok=True)
    named = [avatars / f"{helpers.jid(n)}{layout.AVATAR_SUFFIX}" for n in ("490", "491", "492")]
    named[0].mkdir()
    named[1].symlink_to(tmp_path / "absent")
    assert run(["report", "--in", str(conversation_dir)]) == EXIT_OK
    assert capsys.readouterr().out == clean
    picture = tmp_path / "picture"
    picture.write_bytes(b"\xff\xd8")
    named[2].symlink_to(picture)
    with ingest.Evidence(conversation_dir) as evidence:
        assert [a.jid_raw for a in evidence.avatar_inventory] == [helpers.jid("492")]


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

    spec = {
        "version": 1,
        "line_pattern": DEFAULT_GRAMMAR.line_pattern.pattern,
        "timestamp_format": DEFAULT_GRAMMAR.timestamp_format,
        "rules": [
            {"kind": rule.kind.value, "pattern": rule.pattern.pattern}
            for rule in DEFAULT_GRAMMAR.rules
        ],
    }
    grammar_path = tmp_path / "grammar.json"
    grammar_path.write_text(json.dumps(spec), encoding="utf-8")
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
