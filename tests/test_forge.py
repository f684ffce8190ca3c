"""Fixture generator: determinism, parse parity, script validation."""

import dataclasses
import hashlib
import json
import os
import sqlite3
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import helpers
from wadroid import forge, ingest, layout
from wadroid.backup_crypto import decrypt_bytes
from wadroid.db_reader import DbKind, open_source
from wadroid.errors import InvalidScript
from wadroid.log_parser import DEFAULT_GRAMMAR


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
    # wa.db, and the one chat store that serves the backup and msgstore.db,
    # each while the temp directory is empty
    assert connected == [(":memory:", [])] * 2
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


# --- scripts the forge cannot write faithfully ------------------------------------

_TRIP = {
    "version": 1,
    "owner": helpers.OWNER,
    "actors": [helpers.OWNER, helpers.PARTNER, helpers.BC_R1],
    "actions": [
        {"at": 1380000000000, "do": "create_group", "name": "trip", "label": "g"},
        {"at": 1380000010000, "do": "send_text", "sender": helpers.OWNER,
         "to": helpers.PARTNER, "text": "hi", "label": "m"},
        {"at": 1380000020000, "do": "broadcast", "sender": helpers.OWNER,
         "recipients": [helpers.PARTNER, helpers.BC_R1], "text": "all"},
        {"at": 1380000030000, "do": "send_media", "sender": helpers.PARTNER,
         "to": helpers.OWNER, "kind": "audio", "duration": 12},
    ],
}


@pytest.mark.parametrize(
    "action, changes",
    [
        (None, {"owner": 393400000001, "actors": [393400000001, 393480000002]}),
        (2, {"recipients": 5}),
        (1, {"label": ["a"]}),
        (1, {"text": 5}),
        (1, {"text": True}),
        (3, {"at": 253402300800000}),
        (3, {"duration": 2**70}),
        (0, {"name": "trip\nday"}),
        (0, {"name": "trip\r"}),
        (1, {"do": ["send_text"]}),
        (3, {"content": "0a0b"}),
        (3, {"server_filename": ".."}),
        (3, {"server_filename": "Sent"}),
        (3, {"server_filename": "a/b"}),
    ],
    ids=[
        "integer-numbers",
        "recipients-number",
        "label-list",
        "text-number",
        "text-boolean",
        "at-past-9999",
        "duration-past-int64",
        "group-name-line-feed",
        "group-name-ends-in-carriage-return",
        "action-name-list",
        "content-not-hex",
        "media-name-parent",
        "media-name-sent-directory",
        "media-name-path",
    ],
)
def test_unfaithful_scripts_are_refused_before_writing(tmp_path, action, changes):
    spec = json.loads(json.dumps(_TRIP))
    (spec if action is None else spec["actions"][action]).update(changes)
    out_dir = tmp_path / "evidence"
    with pytest.raises(InvalidScript):
        forge.generate_bundle(forge.script_from_json(json.dumps(spec)), out_dir)
    assert not out_dir.exists()


def test_the_unchanged_reference_of_the_refused_scripts_forges(tmp_path):
    result = forge.generate_bundle(forge.script_from_json(json.dumps(_TRIP)), tmp_path)
    assert ingest.load_case_bundle(tmp_path) == result.bundle


@pytest.mark.parametrize(
    "sender, to, field",
    [
        (helpers.OWNER, helpers.PARTNER, "name"),
        (helpers.PARTNER, helpers.OWNER, "server_filename"),
    ],
    ids=["sent", "received"],
)
def test_two_sends_cannot_write_one_media_file(tmp_path, sender, to, field):
    def two_images(first: bytes, second: bytes) -> forge.ScenarioScript:
        sends = tuple(
            forge.SendMedia(
                at_ms=1380000000000 + i, sender=sender, to=to, content=content, **{field: "x.jpg"}
            )
            for i, content in enumerate((first, second))
        )
        return forge.ScenarioScript(
            owner=helpers.OWNER, actors=(helpers.OWNER, helpers.PARTNER), actions=sends
        )

    with pytest.raises(InvalidScript, match="already taken by different content"):
        forge.generate_bundle(two_images(b"first", b"second"), tmp_path / "e")
    assert not (tmp_path / "e").exists()

    # Identical content may share the file.
    result = forge.generate_bundle(two_images(b"same", b"same"), tmp_path / "same")
    assert ingest.load_case_bundle(tmp_path / "same") == result.bundle
    assert len(result.bundle.media_inventory) == 1
    assert sum(1 for m in result.bundle.messages if m.media_wa_type == 1) == 2


# --- acknowledgement times -------------------------------------------------------

_SENT = 1381932937884


def _acked(sender=helpers.OWNER, to=helpers.PARTNER, **fields) -> forge.ScenarioScript:
    return forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.CreateGroup(at_ms=_SENT - 20_000, name="g", label="g"),
            forge.AddToGroup(at_ms=_SENT - 10_000, group="g", member=helpers.PARTNER),
            forge.SendText(at_ms=_SENT, sender=sender, to=to, text="x", **fields),
        ),
    )


@pytest.mark.parametrize(
    "script, message",
    [
        (_acked(server_ack_at_ms=_SENT + 60_000), "device ack must come after the server ack"),
        (
            _acked(server_ack_at_ms=_SENT + 60_000, device_ack_at_ms=_SENT + 30_000),
            "device ack must come after the server ack",
        ),
        (_acked(device_ack_at_ms=_SENT), "device ack must come after the server ack"),
        (_acked(server_ack_at_ms=_SENT), "server ack must come after the send time"),
        (
            _acked(sender=helpers.PARTNER, to=helpers.OWNER, server_ack_at_ms=_SENT + 1),
            "gets no server ack",
        ),
        (
            _acked(sender=helpers.PARTNER, to=helpers.OWNER, device_ack_at_ms=_SENT + 1),
            "gets no device ack",
        ),
        (_acked(delivery="pending", server_ack_at_ms=_SENT + 1), "gets no server ack"),
        (_acked(delivery="server", device_ack_at_ms=_SENT + 5_000), "gets no device ack"),
        (_acked(to="g", device_ack_at_ms=_SENT + 5_000), "gets no device ack"),
        (
            _acked(sender=helpers.PARTNER, to="g", server_ack_at_ms=_SENT + 1),
            "gets no server ack",
        ),
    ],
    ids=[
        "server-after-default-device",
        "device-before-server",
        "device-at-send",
        "server-at-send",
        "server-on-incoming",
        "device-on-incoming",
        "server-on-pending",
        "device-on-server-delivery",
        "device-on-group",
        "server-on-incoming-group",
    ],
)
def test_explicit_ack_times_are_checked(tmp_path, script, message):
    with pytest.raises(InvalidScript, match=message):
        forge.generate_bundle(script, tmp_path / "evidence")
    assert not (tmp_path / "evidence").exists()


@pytest.mark.parametrize("to", [helpers.PARTNER, "g"], ids=["direct", "group"])
def test_an_explicit_server_ack_is_honoured(tmp_path, to):
    later = _SENT + 60_000
    fields = {"device_ack_at_ms": later + 1_000} if to != "g" else {}
    result = forge.generate_bundle(_acked(to=to, server_ack_at_ms=later, **fields), tmp_path)
    parsed = ingest.load_case_bundle(tmp_path)
    assert parsed == result.bundle
    assert parsed.warnings == ()
    (record,) = [m for m in parsed.messages if m.data == "x"]
    assert record.receipt_server_timestamp == later


# --- oracle guards ----------------------------------------------------------------


@pytest.fixture(scope="module")
def random_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("random0")
    return forge.generate_bundle(forge.random_script(0), root)


@pytest.mark.parametrize("dropped", range(len(DEFAULT_GRAMMAR.rules)))
def test_every_default_rule_is_needed_to_parse_the_forged_log(random_tree, dropped):
    rules = DEFAULT_GRAMMAR.rules[:dropped] + DEFAULT_GRAMMAR.rules[dropped + 1 :]
    grammar = dataclasses.replace(DEFAULT_GRAMMAR, rules=rules)
    assert ingest.load_case_bundle(random_tree.root, grammar) != random_tree.bundle


def _rows(image: bytes) -> bytes:
    conn = sqlite3.connect(":memory:")
    try:
        conn.deserialize(image)
        names = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name")
        return repr(
            [
                (name, conn.execute(f'SELECT * FROM "{name}" ORDER BY rowid').fetchall())
                for (name,) in names.fetchall()
            ]
        ).encode()
    finally:
        conn.close()


def _forged_digest(root: Path) -> str:
    """SHA-256 of every forged file, each database and backup by its rows.

    Rows, not file bytes: a database file's bytes depend on the SQLite version.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if rel.startswith(layout.BACKUPS_DIR):
            data = _rows(decrypt_bytes(data))
        elif rel.startswith(layout.DB_DIR):
            data = _rows(data)
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def test_random_scripts_forge_the_pinned_trees(tmp_path):
    pinned = [
        "400f9862198538ee13e508fa4d34a5f7bb6a9e96bba1ae6c4ef0cc44e381337a",
        "a410819d0cab778ac5ad922aa14b722768024e2124cec04c7503f811e484be71",
        "474ff914d8ef821e8f51e3b370992059cae568ef9bc4ca36cb481f142776e5bb",
        "7753fd11f6930c96f302d61dd113b32a42b944b7cd30a472afc65d951c0a83ca",
        "cd121ac24da38585a32c4bf611901039c7b160dff9545bb13f574e26d34906e8",
    ]
    for seed, expected in enumerate(pinned):
        forge.generate_bundle(forge.random_script(seed), tmp_path / str(seed))
        assert _forged_digest(tmp_path / str(seed)) == expected, seed


def _chat_store_images(root: Path) -> dict[str, bytes]:
    """msgstore.db and every decrypted backup of a forged tree, by file name."""
    images = {"msgstore.db": (root / layout.MSGSTORE_DB).read_bytes()}
    for path in sorted((root / layout.BACKUPS_DIR).glob("*.crypt")):
        images[path.name] = decrypt_bytes(path.read_bytes())
    return images


def _query(image: bytes, sql: str) -> list:
    conn = sqlite3.connect(":memory:")
    try:
        conn.deserialize(image)
        return conn.execute(sql).fetchall()
    finally:
        conn.close()


def test_each_message_row_is_inserted_once(tmp_path, monkeypatch):
    base = 1380000000000
    owner, friend = helpers.OWNER, helpers.PARTNER
    script = forge.ScenarioScript(
        owner=owner,
        actors=(owner, friend),
        actions=(
            forge.SendText(at_ms=base, sender=friend, to=owner, text="first", label="a"),
            forge.SendText(at_ms=base + 10_000, sender=owner, to=friend, text="acked"),
            # pending at the first backup, on the server at the second,
            # delivered at the third
            forge.SnapshotBackup(at_ms=base + 10_500),
            forge.SnapshotBackup(at_ms=base + 12_000),
            forge.SendText(at_ms=base + 12_500, sender=owner, to=friend, text="later"),
            forge.SnapshotBackup(at_ms=base + 20_000),
            forge.DeleteMessage(at_ms=base + 30_000, target="a"),
            forge.SnapshotBackup(at_ms=base + 40_000),
        ),
    )
    statements = []
    real_connect = sqlite3.connect

    def connect(database, *args, **kwargs):
        conn = real_connect(database, *args, **kwargs)
        conn.set_trace_callback(statements.append)  # once per executemany row
        return conn

    monkeypatch.setattr(sqlite3, "connect", connect)
    forge.generate_bundle(script, tmp_path)
    monkeypatch.undo()

    images = _chat_store_images(tmp_path)
    statuses = {
        name: _query(image, "SELECT status FROM messages WHERE data = 'acked'")
        for name, image in images.items()
    }
    assert len(images) == 5
    assert len({tuple(s) for s in statuses.values()}) == 3
    written = {
        row_id for image in images.values() for (row_id,) in _query(image, "SELECT _id FROM messages")
    }
    inserts = [s for s in statements if s.startswith("INSERT INTO messages")]
    assert len(inserts) == len(written) == 3


def test_every_chat_store_image_is_well_formed(tmp_path):
    for seed in range(5):
        forge.generate_bundle(forge.random_script(seed), tmp_path / str(seed))
        for name, image in _chat_store_images(tmp_path / str(seed)).items():
            assert _query(image, "PRAGMA integrity_check") == [("ok",)], (seed, name)


def test_the_sequence_keeps_the_largest_id_the_store_has_held(tmp_path):
    day = 86_400_000
    base = 1380000000000 // day * day
    owner, friend = helpers.OWNER, helpers.PARTNER
    script = forge.ScenarioScript(
        owner=owner,
        actors=(owner, friend),
        actions=(
            forge.SendText(at_ms=base, sender=friend, to=owner, text="kept"),
            forge.SendText(at_ms=base + 1000, sender=friend, to=owner, text="gone", label="g"),
            forge.SnapshotBackup(at_ms=base + 2000),
            forge.DeleteMessage(at_ms=base + 3000, target="g"),
            forge.SnapshotBackup(at_ms=base + day),
        ),
    )
    forge.generate_bundle(script, tmp_path)
    first, second = sorted((tmp_path / layout.BACKUPS_DIR).glob("*.crypt"))
    sequence = "SELECT seq FROM sqlite_sequence WHERE name = 'messages'"
    images = _chat_store_images(tmp_path)
    assert _query(images[first.name], "SELECT max(_id) FROM messages") == [(2,)]
    for name in (second.name, "msgstore.db"):
        assert _query(images[name], "SELECT max(_id) FROM messages") == [(1,)]
        assert _query(images[name], sequence) == [(2,)], name


# --- the chat store advanced by row events ----------------------------------------


def _boundary_script() -> forge.ScenarioScript:
    """Row events on and around snapshot times, each kind of change once."""
    base = 1380000000000
    owner, friend, other = helpers.OWNER, helpers.PARTNER, helpers.USER_E
    return forge.ScenarioScript(
        owner=owner,
        actors=(owner, friend, other),
        seed=5,
        actions=(
            forge.AddContact(at_ms=base - 60_000, number=friend),
            forge.AddContact(at_ms=base - 50_000, number=other),
            # the server ack falls exactly at the first snapshot, the device
            # ack after the snapshot that follows it
            forge.SendText(
                at_ms=base,
                sender=owner,
                to=friend,
                text="acked",
                server_ack_at_ms=base + 10_000,
                device_ack_at_ms=base + 30_000,
            ),
            forge.SendText(at_ms=base + 5_000, sender=friend, to=owner, text="hello"),
            forge.SnapshotBackup(at_ms=base + 10_000),
            # inserted and deleted between two snapshots
            forge.SendText(at_ms=base + 12_000, sender=friend, to=owner, text="brief", label="b"),
            forge.DeleteMessage(at_ms=base + 14_000, target="b"),
            # fan-out rows on the server at the second snapshot, deleted
            # before the fourth
            forge.Broadcast(
                at_ms=base + 16_000, sender=owner, recipients=(friend, other), text="fan", label="bc"
            ),
            forge.SnapshotBackup(at_ms=base + 18_000),
            forge.SnapshotBackup(at_ms=base + 18_500),  # nothing happens between these two
            forge.DeleteMessage(at_ms=base + 21_000, target="bc"),
            forge.SendText(
                at_ms=base + 25_000, sender=owner, to=other, text="last", delivery="server", label="e"
            ),
            forge.SnapshotBackup(at_ms=base + 26_000),
            # the conversation's last message
            forge.DeleteMessage(at_ms=base + 27_000, target="e"),
            forge.SnapshotBackup(at_ms=base + 40_000),
            # inserted and deleted after the last snapshot
            forge.SendText(at_ms=base + 45_000, sender=friend, to=owner, text="tail", label="t"),
            forge.DeleteMessage(at_ms=base + 46_000, target="t"),
        ),
    )


def test_rows_changed_on_snapshot_boundaries_forge_the_pinned_tree(tmp_path):
    result = forge.generate_bundle(_boundary_script(), tmp_path)
    assert len(result.bundle.backups) == 5
    assert _forged_digest(tmp_path) == "b1d8d5e742198f9a79826cf626c271374e560c96a051caa205d6ddb85fddb7ee"
    parsed = ingest.load_case_bundle(tmp_path)
    assert parsed == result.bundle


def _quiet_tail_script(snapshots: int) -> forge.ScenarioScript:
    """Fifty messages, then ``snapshots`` backups with no row change between them."""
    base = 1380000000000
    owner, friend = helpers.OWNER, helpers.PARTNER
    sends = tuple(
        forge.SendText(
            at_ms=base + i * 10_000,
            sender=(owner, friend)[i % 2],
            to=(friend, owner)[i % 2],
            text=f"m{i}",
        )
        for i in range(50)
    )
    backups = tuple(
        forge.SnapshotBackup(at_ms=base + 1_000_000 + i * 60_000) for i in range(snapshots)
    )
    return forge.ScenarioScript(owner=owner, actors=(owner, friend), actions=sends + backups)


def test_a_snapshot_with_no_row_change_materializes_no_row(tmp_path, monkeypatch):
    calls = []
    materialize = forge._SimMessage.materialize

    def counted(self, as_of_ms=None):
        calls.append(self.id)
        return materialize(self, as_of_ms)

    monkeypatch.setattr(forge._SimMessage, "materialize", counted)
    counts = []
    for snapshots in (20, 40):
        calls.clear()
        forge.generate_bundle(_quiet_tail_script(snapshots), tmp_path / str(snapshots))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_the_forged_tree_does_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(forge.__file__).parents[1])
    forge_one = "import sys; from wadroid import forge; forge.generate_bundle(forge.random_script(0), sys.argv[1])"
    digests = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        out = tmp_path / seed
        subprocess.run([sys.executable, "-c", forge_one, str(out)], env=env, check=True, timeout=120)
        digests.append(_forged_digest(out))
    assert digests[0] == digests[1]
