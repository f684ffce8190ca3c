"""Shared test utilities: fixture builders, normalizers, independent oracles."""

from __future__ import annotations

import sqlite3
from pathlib import Path

from wadroid import forge
from wadroid.backup_crypto import decrypt_backup
from wadroid.correlator import (
    group_membership_timeline,
    infer_deleted_contacts,
    infer_deleted_messages,
    log_index,
    reconstruct_history,
    resolve_partners,
)
from wadroid.report import content_json

def decrypt_file(path: Path, data: bytes, key: bytes | None = None) -> bytearray:
    """``data`` written to ``path``, then read back through ``decrypt_backup``."""
    path.write_bytes(data)
    return decrypt_backup(path, key)


# --- normalized views over the analysis (shape shared with forge ground truth)


def content_sig(record) -> tuple:
    content = content_json(record)
    kind = content["type"]
    if kind in ("image", "audio", "video"):
        return ("media", content["mime"], content["sha256_b64"])
    if kind == "contact_card":
        return ("vcard", content["display_name"] or "")
    if kind == "geo":
        return ("geo", f"{content['latitude']:.6f}", f"{content['longitude']:.6f}")
    return ("text", content["text"])


def observed_analytics(bundle):
    """Run the correlator and normalize its output to ground-truth shapes."""
    histories = {
        jid: tuple(
            (
                e.record.key_id_raw,
                e.record.direction,
                e.record.effective_time,
                content_sig(e.record),
                e.source,
            )
            for e in entries
        )
        for jid, entries in reconstruct_history(bundle).items()
    }
    broadcasts = tuple(
        (b.key_raw, b.destinations, b.recipient_count, b.self_record_id is not None)
        for b in resolve_partners(bundle)
    )
    timelines = {
        t.group_raw: (
            t.group_name,
            tuple((e.at_ms, e.kind.value, e.member_raw, e.source) for e in t.events),
        )
        for t in group_membership_timeline(bundle)
    }
    index = log_index(bundle)
    deleted_messages = frozenset(
        (
            f.payload["key"],
            f.payload["deleted_at_ms"],
            f.payload["sent_at_ms"],
            f.payload["received_at_ms"],
            frozenset(f.payload["partners"]),
            f.payload["last_state"],
            f.payload["recovered_from_backup"],
        )
        for f in infer_deleted_messages(bundle)
    )
    deleted_contacts = frozenset(
        (f.payload["jid"], f.payload["added_at_ms"])
        for f in infer_deleted_contacts(bundle, index)
        if f.payload.get("added_at_ms") is not None
    )
    additions = {jid.raw: ms for jid, ms in index.additions}
    return {
        "histories": histories,
        "broadcasts": broadcasts,
        "group_timelines": timelines,
        "deleted_messages": deleted_messages,
        "deleted_contacts": deleted_contacts,
        "addition_times": additions,
    }


def expected_analytics_dict(expected: forge.ExpectedAnalytics) -> dict:
    return {
        "histories": expected.histories,
        "broadcasts": expected.broadcasts,
        "group_timelines": expected.group_timelines,
        "deleted_messages": expected.deleted_messages,
        "deleted_contacts": expected.deleted_contacts,
        "addition_times": expected.addition_times,
    }


# --- independent block-status oracle ------------------------------------------


def enumerate_block_outcomes(events) -> dict[str, str]:
    """Brute-force block-status oracle by enumerating consistent histories.

    Model of the evidence: a block line proves the contact was not
    blocked just before and is blocked right after; an unblock line
    proves a non-empty subset of the currently blocked contacts was
    unblocked, without naming it. A contact's final status is reported
    only when it is identical in every consistent history.
    """
    states = {frozenset()}
    for event in events:
        new_states = set()
        if event[0] == "block":
            contact = event[1]
            for state in states:
                if contact in state:
                    continue  # inconsistent: the app cannot re-block
                new_states.add(state | {contact})
        else:
            for state in states:
                if not state:
                    continue  # inconsistent: nothing to unblock
                items = sorted(state)
                for mask in range(1, 2 ** len(items)):
                    removed = {items[i] for i in range(len(items)) if mask >> i & 1}
                    new_states.add(state - removed)
        states = new_states
    ever_blocked = {event[1] for event in events if event[0] == "block"}
    outcome = {}
    for contact in ever_blocked:
        values = {contact in state for state in states}
        if values == {True}:
            outcome[contact] = "blocked"
        elif values == {False}:
            outcome[contact] = "unblocked"
        else:
            outcome[contact] = "unknown"
    return outcome


def valid_block_scripts(contacts, max_len):
    """Every action sequence the device could actually produce (unblock
    clears everything; operations only fire when applicable)."""

    def extend(script, blocked, budget):
        yield script
        if budget == 0:
            return
        for contact in contacts:
            if contact not in blocked:
                yield from extend(
                    script + [("block", contact)], blocked | {contact}, budget - 1
                )
        if blocked:
            yield from extend(script + [("unblock",)], frozenset(), budget - 1)

    yield from extend([], frozenset(), max_len)


# --- handcrafted database fixtures ----------------------------------------------

CONTACTS_SCHEMA = """
CREATE TABLE android_metadata (locale TEXT);
CREATE TABLE wa_contacts (
    _id INTEGER PRIMARY KEY AUTOINCREMENT,
    jid TEXT, is_whatsapp_user INTEGER, status TEXT, number TEXT,
    raw_contact_id INTEGER, display_name TEXT, phone_type INTEGER,
    phone_label TEXT, unseen_msg_count INTEGER, photo_ts INTEGER,
    thumb_ts INTEGER, photo_id_timestamp INTEGER, given_name TEXT,
    family_name TEXT, wa_name TEXT, sort_name TEXT
);
"""

MSGSTORE_SCHEMA = """
CREATE TABLE messages (
    _id INTEGER PRIMARY KEY AUTOINCREMENT,
    key_remote_jid TEXT, key_from_me INTEGER, key_id TEXT, status INTEGER,
    needs_push INTEGER, data TEXT, timestamp INTEGER, media_url TEXT,
    media_mime_type TEXT, media_wa_type INTEGER, media_size INTEGER,
    media_name TEXT, media_hash TEXT, media_duration INTEGER,
    latitude REAL, longitude REAL, thumb_image BLOB, remote_resource TEXT,
    received_timestamp INTEGER, send_timestamp INTEGER,
    receipt_server_timestamp INTEGER, receipt_device_timestamp INTEGER,
    raw_data BLOB, recipient_count INTEGER
);
CREATE TABLE chat_list (
    _id INTEGER PRIMARY KEY AUTOINCREMENT,
    key_remote_jid TEXT, message_table_id INTEGER
);
"""

MESSAGE_DEFAULTS = {
    "key_from_me": 0,
    "status": 0,
    "needs_push": 0,
    "media_wa_type": 0,
    "received_timestamp": -1,
    "send_timestamp": -1,
    "receipt_server_timestamp": -1,
    "receipt_device_timestamp": -1,
}


def build_db(path: Path, schema: str, tables: dict) -> Path:
    conn = sqlite3.connect(path)
    try:
        conn.executescript(schema)
        for table, rows in tables.items():
            for row in rows:
                cols = list(row)
                conn.execute(
                    f"INSERT INTO {table} ({', '.join(cols)}) "
                    f"VALUES ({', '.join('?' for _ in cols)})",
                    [row[c] for c in cols],
                )
        conn.commit()
    finally:
        conn.close()
    return path


def contacts_db(path: Path, rows) -> Path:
    return build_db(path, CONTACTS_SCHEMA, {"wa_contacts": rows})


def msgstore_db(path: Path, messages=(), chats=()) -> Path:
    messages = [dict(MESSAGE_DEFAULTS, **row) for row in messages]
    return build_db(path, MSGSTORE_SCHEMA, {"messages": messages, "chat_list": chats})


def corrupt_page_2(data: bytes) -> bytes:
    """Overwrite the second page of a SQLite file, the root of its first table."""
    data = bytearray(data)
    page_size = int.from_bytes(data[16:18], "big")
    data[page_size : 2 * page_size] = b"\xa5" * page_size
    return bytes(data)


# --- reference scenarios ----------------------------------------------------------
#
# Times are UTC epoch milliseconds; the device clock in the reference
# captures ran at UTC.

OWNER = "393400000001"
PARTNER = "393480000002"
USER_D = "393200000006"  # group scenario owner
USER_E = "393350000004"
USER_F = "393330000005"
BC_R1 = "393200000003"
BC_R2 = "393350000004"
BC_R3 = "393330000005"

CONV_IN_1 = 1329116349000  # 2012-02-13 06:59:09Z
CONV_OUT_1 = 1329116423000  # 2012-02-13 07:00:23Z
CONV_IN_2 = 1329116500000
CONV_OUT_2 = 1329116560000

STATE_SENT = 1381932937884  # 2013-10-16 14:15:37.884Z
STATE_SERVER = 1381933025551  # 2013-10-16 14:17:05.551Z
STATE_DEVICE = 1381933319135  # 2013-10-16 14:21:59.135Z

GRP_CREATE = 1384187045000  # 2013-11-11 16:24:05Z
GRP_ADD_E = 1384187045500
GRP_ADD_F = 1384252848000  # 2013-11-12 10:40:48Z
GRP_LEAVE_F = 1384467096000  # 2013-11-14 22:11:36Z
GRP_LEAVE_E = 1384508994000  # 2013-11-15 09:49:54Z


def conversation_script() -> forge.ScenarioScript:
    """Two message/reply rounds opened by the remote contact."""
    return forge.ScenarioScript(
        owner=OWNER,
        actors=(OWNER, PARTNER),
        actions=(
            forge.SendText(at_ms=CONV_IN_1, sender=PARTNER, to=OWNER, text="Message 1"),
            forge.SendText(at_ms=CONV_OUT_1, sender=OWNER, to=PARTNER, text="Reply 1"),
            forge.SendText(at_ms=CONV_IN_2, sender=PARTNER, to=OWNER, text="Message 2"),
            forge.SendText(at_ms=CONV_OUT_2, sender=OWNER, to=PARTNER, text="Reply 2"),
        ),
    )


def delivery_script() -> forge.ScenarioScript:
    """One outgoing message whose acks arrived minutes later."""
    return forge.ScenarioScript(
        owner=OWNER,
        actors=(OWNER, PARTNER),
        actions=(
            forge.SendText(
                at_ms=STATE_SENT,
                sender=OWNER,
                to=PARTNER,
                text="delayed delivery",
                delivery="delivered",
                server_ack_at_ms=STATE_SERVER,
                device_ack_at_ms=STATE_DEVICE,
            ),
        ),
    )


def broadcast_script() -> forge.ScenarioScript:
    return forge.ScenarioScript(
        owner=OWNER,
        actors=(OWNER, BC_R1, BC_R2, BC_R3),
        actions=(
            forge.Broadcast(
                at_ms=1382349000000,
                sender=OWNER,
                recipients=(BC_R1, BC_R2, BC_R3),
                text="broadcast hello",
            ),
        ),
    )


def group_script() -> forge.ScenarioScript:
    """Create, two joins, two leaves, at the reference times."""
    return forge.ScenarioScript(
        owner=USER_D,
        actors=(USER_D, USER_E, USER_F),
        actions=(
            forge.CreateGroup(at_ms=GRP_CREATE, name="wa test group", label="g"),
            forge.AddToGroup(at_ms=GRP_ADD_E, group="g", member=USER_E),
            forge.AddToGroup(at_ms=GRP_ADD_F, group="g", member=USER_F),
            forge.LeaveGroup(at_ms=GRP_LEAVE_F, group="g", member=USER_F),
            forge.LeaveGroup(at_ms=GRP_LEAVE_E, group="g", member=USER_E),
        ),
    )


def jid(number: str) -> str:
    return f"{number}@s.whatsapp.net"
