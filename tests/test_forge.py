"""Fixture generator: determinism, parse parity, script validation."""

import hashlib
import json
import sqlite3
import tempfile
from pathlib import Path

import pytest

import helpers
from wadroid import forge, ingest
from wadroid.db_reader import DbKind, open_source
from wadroid.errors import InvalidScript


def _tree_hashes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _mixed_script() -> forge.ScenarioScript:
    base = 1380000000000
    owner, friend, other = helpers.OWNER, helpers.PARTNER, helpers.BC_R1
    return forge.ScenarioScript(
        owner=owner,
        actors=(owner, friend, other),
        seed=99,
        actions=(
            forge.AddContact(at_ms=base, number=friend),
            forge.AddContact(at_ms=base + 10_000, number=other),
            forge.SendText(at_ms=base + 20_000, sender=owner, to=friend, text="hello", label="t1"),
            forge.SendMedia(at_ms=base + 30_000, sender=friend, to=owner, media_kind="image"),
            forge.SendVCard(
                at_ms=base + 40_000, sender=owner, to=friend, display_name="Dr. Example"
            ),
            forge.SendGeo(at_ms=base + 50_000, sender=owner, to=friend, latitude=45.07, longitude=7.68),
            forge.CreateGroup(at_ms=base + 60_000, name="trip", label="g1"),
            forge.AddToGroup(at_ms=base + 70_000, group="g1", member=friend),
            forge.SendText(at_ms=base + 80_000, sender=friend, to="g1", text="in group"),
            forge.Broadcast(
                at_ms=base + 90_000, sender=owner, recipients=(friend, other), text="fan out"
            ),
            forge.SnapshotBackup(at_ms=base + 100_000),
            forge.BlockContact(at_ms=base + 110_000, number=other),
            forge.DeleteMessage(at_ms=base + 120_000, target="t1"),
            forge.DeleteContact(at_ms=base + 130_000, number=other),
        ),
    )


def test_determinism_byte_identical(tmp_path):
    script = _mixed_script()
    forge.generate_bundle(script, tmp_path / "one")
    forge.generate_bundle(script, tmp_path / "two")
    assert _tree_hashes(tmp_path / "one") == _tree_hashes(tmp_path / "two")


def test_each_store_is_built_in_memory_and_no_temp_file_is_written(tmp_path, monkeypatch):
    temp_dir = tmp_path / "temp"
    temp_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
    connected = []
    real_connect = sqlite3.connect

    def connect(database, *args, **kwargs):
        connected.append((database, list(temp_dir.iterdir())))
        return real_connect(database, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", connect)
    forge.generate_bundle(_mixed_script(), tmp_path / "evidence")
    # wa.db, msgstore.db and the one backup, each while the temp directory is empty
    assert connected == [(":memory:", [])] * 3
    assert list(temp_dir.iterdir()) == []


def test_parse_matches_expected_bundle(tmp_path):
    result = forge.generate_bundle(_mixed_script(), tmp_path)
    parsed = ingest.load_case_bundle(result.root)
    assert parsed == result.bundle
    # only the predicted dangling-pointer warnings may appear
    assert all("does not reference a live" in w.message for w in parsed.warnings)


def test_empty_script_structurally_valid(tmp_path):
    script = forge.ScenarioScript(owner=helpers.OWNER, actors=(helpers.OWNER,))
    result = forge.generate_bundle(script, tmp_path)
    parsed = ingest.load_case_bundle(result.root)
    assert parsed == result.bundle
    assert parsed.contacts == ()
    assert parsed.messages == ()
    assert parsed.registered_number == helpers.OWNER
    assert parsed.own_avatar_present
    assert len(parsed.warnings) == 0
    # tables exist even when empty
    databases = result.root / "data/data/com.whatsapp/databases"
    open_source(databases / "wa.db", DbKind.CONTACTS)
    open_source(databases / "msgstore.db", DbKind.CHAT_STORE)
    assert "sqlite_sequence" in _table_names(databases / "wa.db")
    assert {"messages", "chat_list"} <= _table_names(databases / "msgstore.db")


def _table_names(path) -> set[str]:
    conn = sqlite3.connect(path)
    try:
        tables = conn.execute("SELECT name FROM sqlite_master WHERE type='table'")
        return {name for (name,) in tables}
    finally:
        conn.close()


def test_deleting_last_message_leaves_dangling_pointer(tmp_path):
    base = 1380000000000
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.SendText(
                at_ms=base, sender=helpers.OWNER, to=helpers.PARTNER, text="x", label="m"
            ),
            forge.DeleteMessage(at_ms=base + 60_000, target="m"),
        ),
    )
    result = forge.generate_bundle(script, tmp_path)
    parsed = ingest.load_case_bundle(result.root)
    assert parsed == result.bundle
    assert len(parsed.warnings) == 1
    assert "does not reference a live" in parsed.warnings[0].message


@pytest.mark.parametrize(
    "actions,message",
    [
        (
            (
                forge.SendText(at_ms=2000, sender="393400000001", to="393480000002", text="a"),
                forge.SendText(at_ms=2000, sender="393400000001", to="393480000002", text="b"),
            ),
            "does not increase",
        ),
        (
            (forge.SendText(at_ms=1000, sender="393400000001", to="555", text="x"),),
            "unknown actor",
        ),
        ((forge.UnblockAll(at_ms=1000),), "no blocked contacts"),
        (
            (forge.AddToGroup(at_ms=1000, group="nope", member="393480000002"),),
            "unknown group",
        ),
        (
            (forge.DeleteMessage(at_ms=1000, target="ghost"),),
            "matches no known message",
        ),
        (
            (
                forge.SendText(
                    at_ms=1000, sender="393400000001", to="393480000002", text="x", label="m"
                ),
                forge.DeleteMessage(at_ms=1500, target="m"),
            ),
            "precedes the message's last delivery event",
        ),
        (
            (forge.SendText(at_ms=1000, sender="393480000002", to="393200000003", text="x"),),
            "must involve the device owner",
        ),
        (
            (forge.AddContact(at_ms=1000, number="393400000001"),),
            "not a contact of itself",
        ),
    ],
)
def test_invalid_scripts(tmp_path, actions, message):
    script = forge.ScenarioScript(
        owner="393400000001",
        actors=("393400000001", "393480000002", "393200000003"),
        actions=actions,
    )
    with pytest.raises(InvalidScript, match=message):
        forge.generate_bundle(script, tmp_path)


def test_script_json_roundtrip(tmp_path):
    script = _mixed_script()
    text = forge.script_to_json(script)
    again = forge.script_from_json(text)
    assert again == script


def test_script_json_human_times():
    spec = {
        "version": 1,
        "owner": "393400000001",
        "actors": ["393400000001", "393480000002"],
        "actions": [
            {
                "at": "2013-10-16 14:15:37.884 +00:00",
                "do": "send_text",
                "sender": "393400000001",
                "to": "393480000002",
                "text": "hi",
            }
        ],
    }
    script = forge.script_from_json(json.dumps(spec))
    assert script.actions[0].at_ms == 1381932937884


@pytest.mark.parametrize(
    "at, at_ms",
    [
        ("2013-01-01 00:00:00 -00:30", 1357000200000),
        ("2013-01-01 00:00:00 -01:30", 1357003800000),
        ("2013-01-01 00:00:00 +05:45", 1356977700000),
        ("2013-01-01 00:00:00Z", 1356998400000),
    ],
)
def test_script_json_time_offsets(at, at_ms):
    spec = {"version": 1, "owner": "1", "actors": ["1"], "actions": [{"at": at, "do": "unblock_all"}]}
    assert forge.script_from_json(json.dumps(spec)).actions[0].at_ms == at_ms


def test_script_json_rejects_unknown_action():
    spec = {
        "version": 1,
        "owner": "1",
        "actors": ["1"],
        "actions": [{"at": 1, "do": "explode"}],
    }
    with pytest.raises(InvalidScript):
        forge.script_from_json(json.dumps(spec))


def test_random_script_reproducible():
    a = forge.random_script(seed=123, max_actions=80)
    b = forge.random_script(seed=123, max_actions=80)
    assert a == b
    c = forge.random_script(seed=124, max_actions=80)
    assert c != a


def test_random_scripts_generate_and_verify(tmp_path):
    for seed in (5, 6):
        script = forge.random_script(seed=seed, max_actions=60)
        result = forge.generate_bundle(script, tmp_path / f"s{seed}")
        parsed = ingest.load_case_bundle(result.root)
        assert parsed == result.bundle
        observed = helpers.observed_analytics(parsed)
        assert observed == helpers.expected_analytics_dict(result.expected)


def test_unicode_content_survives_the_pipeline(tmp_path):
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.SendText(
                at_ms=1380000000000, sender=helpers.PARTNER, to=helpers.OWNER,
                text="ciao 😊 àèì — ≠",
            ),
            forge.CreateGroup(at_ms=1380000060000, name="vacanze ⛱ estate", label="g"),
            forge.AddToGroup(at_ms=1380000120000, group="g", member=helpers.PARTNER),
            forge.SendText(
                at_ms=1380000180000, sender=helpers.PARTNER, to="g", text="日本語テキスト"
            ),
        ),
    )
    result = forge.generate_bundle(script, tmp_path)
    parsed = ingest.load_case_bundle(result.root)
    assert parsed == result.bundle
    from wadroid.correlator import analyze
    from wadroid.report import build_report, render_report_json

    rendered = render_report_json(build_report(parsed, analyze(parsed)))
    assert "😊" in rendered and "日本語テキスト" in rendered
    assert "vacanze ⛱ estate" in rendered


def test_wrong_backup_key_degrades_with_warning(tmp_path):
    base = 1380000000000
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.SendText(at_ms=base, sender=helpers.OWNER, to=helpers.PARTNER, text="x"),
            forge.SnapshotBackup(at_ms=base + 60_000),
        ),
    )
    result = forge.generate_bundle(script, tmp_path)
    from wadroid.log_parser import DEFAULT_GRAMMAR

    bundle = ingest.load_case_bundle(result.root, DEFAULT_GRAMMAR, key=bytes(24))
    assert bundle.backups == ()
    assert any("backup not decrypted" in w.message for w in bundle.warnings)
