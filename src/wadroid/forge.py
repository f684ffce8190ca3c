"""Synthetic evidence bundles generated from declarative scenario scripts.

The forge plays a scenario on one simulated device (the "owner") and
writes the complete artifact layout: contacts and chat databases,
encrypted backup snapshots, log files in the parser's DEFAULT grammar,
media files with consistent hash/URL linkage, avatar placeholders, and
the settings files. Because the same simulation also derives the
expected parse result and the expected analytical conclusions, a forged
bundle is the ground-truth oracle for every correlation test.

Each log line is recorded where it is emitted, together with what the
parser must read from its body (event kind, jid, message key, group id,
group subject); the expected log events are built from those records,
so the DEFAULT grammar is the only reader of the bodies.

Determinism contract: identical (script, seed) pairs produce
byte-identical bundles, and every generated artifact passes its parser
with zero warnings (the sole expected warnings are chat-list rows left
dangling by message deletions, which the generator predicts).

A script the forge cannot write faithfully is refused as
``InvalidScript`` before any file is written, and so is an output
directory that exists and is not empty (``StructuralError``).
``script_from_json`` checks each field's JSON type against the field's
annotation. The simulation checks the rest:

- every time, in UTC and in the script's local time, falls between
  1970 and the end of the year 9999; a media duration fits SQLite's
  signed 64-bit integers; a media file name is one plain path component;
  a group name holds no line feed and does not end in a carriage return;
- an outgoing message gets a server ack unless ``pending`` and a device
  ack when ``delivered``; a group message gets no device ack, so a
  delivered one stays on the server. An explicit ``server_ack_at_ms`` or
  ``device_ack_at_ms`` must name an ack the row gets, and the send time,
  the server ack and the device ack must strictly increase.

Scenario scripts are JSON (see ``script_from_json``), format version 1:

    {
      "version": 1,
      "owner": "393401234567",
      "actors": ["393401234567", "393481111111"],
      "tz": "+00:00",
      "seed": 7,
      "actions": [
        {"at": "2013-02-13 06:59:09.000 +00:00", "do": "add_contact",
         "number": "393481111111"},
        {"at": "2013-02-13 07:00:23.000 +00:00", "do": "send_text",
         "sender": "393401234567", "to": "393481111111", "text": "hi",
         "label": "m1"},
        {"at": "2013-02-14 07:00:00.000 +00:00", "do": "delete_message",
         "target": "m1"}
      ]
    }

Action times must strictly increase; actions may only reference actors,
groups, and message labels introduced earlier. Group chats are always
created by the owner (the device under examination sees the full
control-message history only for groups it belonged to from creation).
"""

from __future__ import annotations

import base64
import hashlib
import json
import random
import re
import sqlite3
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

from . import db_reader, layout, log_parser
from .backup_crypto import encrypt_fixture
from .errors import InvalidScript, MalformedKey, StructuralError
from .model import (
    BROADCAST_JID,
    CALENDAR_END_MS,
    BackupSet,
    CaseBundle,
    ChatListRecord,
    ContactRecord,
    EventKind,
    LogEvent,
    MediaFile,
    AvatarFile,
    MessageRecord,
    USER_JID_SUFFIX,
    WarningLog,
    classify_jid,
    coordinates_fault,
    format_tz_offset,
    parse_group_id,
    parse_message_key,
    parse_tz_offset,
)

SCRIPT_FORMAT_VERSION = 1

SERVER_ACK_DELTA_MS = 1500
DEVICE_ACK_DELTA_MS = 3000

_PENDING, _SERVER, _DELIVERED = "pending", "server", "delivered"
_DELIVERY_CHOICES = (_PENDING, _SERVER, _DELIVERED)


# --- scenario actions -------------------------------------------------------


@dataclass(frozen=True)
class AddContact:
    at_ms: int
    number: str
    wa_name: str | None = None
    status_line: str | None = None
    is_whatsapp_user: bool = True


@dataclass(frozen=True)
class BlockContact:
    at_ms: int
    number: str


@dataclass(frozen=True)
class UnblockAll:
    at_ms: int


@dataclass(frozen=True)
class SendText:
    at_ms: int
    sender: str
    to: str  # actor number or group label
    text: str
    label: str | None = None
    delivery: str = _DELIVERED
    # explicit acknowledgement times; defaults derive from at_ms
    server_ack_at_ms: int | None = None
    device_ack_at_ms: int | None = None


@dataclass(frozen=True)
class SendMedia:
    at_ms: int
    sender: str
    to: str
    media_kind: str = "image"  # image / audio / video
    content: bytes | None = None
    name: str | None = None
    duration: int | None = None
    server_filename: str | None = None
    label: str | None = None
    delivery: str = _DELIVERED


@dataclass(frozen=True)
class SendVCard:
    at_ms: int
    sender: str
    to: str
    display_name: str
    vcard: str | None = None
    label: str | None = None
    delivery: str = _DELIVERED


@dataclass(frozen=True)
class SendGeo:
    at_ms: int
    sender: str
    to: str
    latitude: float
    longitude: float
    label: str | None = None
    delivery: str = _DELIVERED


@dataclass(frozen=True)
class Broadcast:
    at_ms: int
    sender: str
    recipients: tuple[str, ...]
    text: str
    label: str | None = None
    delivery: str = _DELIVERED


@dataclass(frozen=True)
class CreateGroup:
    at_ms: int
    name: str
    label: str


@dataclass(frozen=True)
class AddToGroup:
    at_ms: int
    group: str
    member: str


@dataclass(frozen=True)
class LeaveGroup:
    at_ms: int
    group: str
    member: str


@dataclass(frozen=True)
class DeleteMessage:
    at_ms: int
    target: str  # message label or raw key


@dataclass(frozen=True)
class DeleteContact:
    at_ms: int
    number: str


@dataclass(frozen=True)
class SnapshotBackup:
    at_ms: int


@dataclass(frozen=True)
class ScenarioScript:
    owner: str
    actors: tuple[str, ...]
    actions: tuple = ()
    seed: int = 0
    tz_offset_minutes: int = 0


# --- ground truth -----------------------------------------------------------


@dataclass(frozen=True)
class ExpectedAnalytics:
    """Normalized analytical ground truth derived from the simulation."""

    histories: dict  # jid_raw -> tuple[HistoryLine, ...]
    partners: dict  # record_id -> (kind, partners, originator, authored_by_owner)
    broadcasts: tuple  # (key, destinations, recipient_count, self_row_present)
    group_timelines: dict  # gid_raw -> (name, tuple[(ms, kind, member, source), ...])
    deleted_messages: frozenset  # (key, deleted, sent, received, partners, state, recovered)
    deleted_contacts: frozenset  # (jid_raw, added_at_ms)
    addition_times: dict  # jid_raw -> earliest addition-evidence ms


@dataclass(frozen=True)
class ForgeResult:
    root: Path
    bundle: CaseBundle
    expected: ExpectedAnalytics


# --- simulation internals ----------------------------------------------------


@dataclass
class _SimContact:
    row_id: int
    number: str
    jid_raw: str
    added_ms: int
    wa_name: str
    status_line: str
    is_whatsapp_user: bool
    deleted: bool = False


@dataclass
class _SimMessage:
    jid_raw: str
    key_raw: str
    from_me: bool
    insert_ms: int
    final_status: int = 0
    id: int = 0  # the row number, set by insert_message
    received_ms: int | None = None
    server_ack_ms: int | None = None
    device_ack_ms: int | None = None
    delete_ms: int | None = None
    media_type: int = 0
    data: str | None = None
    raw_data: bytes | None = None
    media_hash: str | None = None
    media_url: str | None = None
    media_mime: str | None = None
    media_size: int | None = None
    media_name: str | None = None
    media_duration: int | None = None
    latitude: float | None = None
    longitude: float | None = None
    needs_push: int = 0
    recipient_count: int | None = None
    remote_resource: str | None = None

    def final_event_ms(self) -> int:
        return max(
            self.insert_ms,
            self.server_ack_ms or 0,
            self.device_ack_ms or 0,
            self.received_ms or 0,
        )

    def materialize(self, as_of_ms: int | None = None) -> dict:
        """Column values as they stood at ``as_of_ms`` (None = final state)."""
        t = as_of_ms if as_of_ms is not None else self.final_event_ms()
        if self.final_status == 6:
            status = 6
            server = device = -1
            received = self.received_ms if not self.from_me else -1
        elif not self.from_me:
            status = self.final_status
            server = device = -1
            received = self.received_ms
        else:
            if self.server_ack_ms is None or t < self.server_ack_ms:
                status = 0
            elif self.device_ack_ms is None or t < self.device_ack_ms:
                status = 4
            else:
                status = 5
            server = self.server_ack_ms if status >= 4 else -1
            device = self.device_ack_ms if status >= 5 else -1
            received = self.insert_ms if status == 0 else -1
        return {
            "_id": self.id,
            "key_remote_jid": self.jid_raw,
            "key_from_me": 1 if self.from_me else 0,
            "key_id": self.key_raw,
            "status": status,
            "needs_push": self.needs_push,
            "data": self.data,
            "timestamp": self.insert_ms,
            "media_url": self.media_url,
            "media_mime_type": self.media_mime,
            "media_wa_type": self.media_type,
            "media_size": self.media_size,
            "media_name": self.media_name,
            "media_hash": self.media_hash,
            "media_duration": self.media_duration,
            "latitude": self.latitude,
            "longitude": self.longitude,
            "thumb_image": None,
            "remote_resource": self.remote_resource,
            "received_timestamp": received if received is not None else -1,
            "send_timestamp": -1,
            "receipt_server_timestamp": server if server is not None else -1,
            "receipt_device_timestamp": device if device is not None else -1,
            "raw_data": self.raw_data,
            "recipient_count": self.recipient_count,
        }


@dataclass
class _SimGroup:
    label: str
    gid_raw: str
    name: str
    creator: str
    members: set = field(default_factory=set)
    events: list = field(default_factory=list)  # (ms, kind, member_raw, key_raw)


def _user_jid(number: str) -> str:
    return number + USER_JID_SUFFIX


def _is_file_name(name: str) -> bool:
    """Whether ``name`` is one path component that a file can be created under."""
    size = len(name.encode("utf-8", "surrogatepass"))
    return 0 < size <= 255 and name not in (".", "..") and "/" not in name and "\0" not in name


# media_size of a group control row, by its membership change
_CONTROL_CODES = {"created": 1, "joined": 4, "left": 5}

_MEDIA_PRESETS = {
    "image": (1, "image/jpeg", "IMG", ".jpg"),
    "audio": (2, "audio/mp4", "AUD", ".m4a"),
    "video": (3, "video/mp4", "VID", ".mp4"),
}


class _Simulator:
    def __init__(self, script: ScenarioScript):
        self.script = script
        self.rng = random.Random(script.seed)
        self.owner = script.owner
        self.contacts: list[_SimContact] = []
        self.contact_by_number: dict[str, _SimContact] = {}
        self.messages: list[_SimMessage] = []
        self.by_key: dict[str, list[_SimMessage]] = {}
        self.labels: dict[str, str] = {}  # label -> key_raw
        self.chat_rows: dict[str, list[int]] = {}  # jid -> [chat_id, last_msg_id]
        self.groups: dict[str, _SimGroup] = {}
        self.group_by_gid: dict[str, _SimGroup] = {}
        # (ms, emission order, body, kind, jid, key, gid, subject): each log
        # line with the fields the parser must read from its body
        self.log: list[tuple] = []
        self.snapshots: list[tuple[str, int]] = []  # (file name, as_of_ms)
        self.media_files: dict[str, tuple[bytes, bytes]] = {}  # path -> (content, SHA-256)
        self.avatar_jids: list[str] = []
        self.sessions: dict[str, list[int]] = {}  # number -> [session_s, next_seq]
        self.used_sessions: set[int] = set()
        self.used_server_names: set[str] = set()
        self.blocked: set[str] = set()
        self.deleted_keys: dict[str, dict] = {}
        self.addition_times: dict[str, int] = {}
        self._media_counter = 0
        self._last_ms: int | None = None
        # Every time is written in UTC and logged in local time, and both
        # must fall in datetime's calendar. Message keys and group ids hold
        # the epoch second, so no time precedes 1970.
        self.time_end = min(CALENDAR_END_MS, CALENDAR_END_MS - script.tz_offset_minutes * 60_000)
        self._index = 0

    # -- helpers

    def fail(self, message: str):
        raise InvalidScript(f"action #{self._index}: {message}")

    def check_time(self, ms: int) -> None:
        if not 0 <= ms < self.time_end:
            self.fail(f"time {ms} is before 1970 or past the year 9999")

    def emit(
        self,
        ms: int,
        body: str,
        kind: EventKind = EventKind.OTHER,
        jid: str | None = None,
        key: str | None = None,
        gid: str | None = None,
        subject: str | None = None,
    ) -> None:
        self.check_time(ms)
        self.log.append((ms, len(self.log), body, kind, jid, key, gid, subject))

    def log_sent(
        self, at: int, key: str, destinations, server: int | None, device: int | None
    ) -> None:
        for jid in destinations:
            self.emit(at, log_parser.body_message_sent(key, jid), EventKind.MESSAGE_SENT, jid, key)
        if server is not None:
            self.emit(server, log_parser.body_server_ack(key), EventKind.SERVER_ACK, key=key)
        if device is not None:
            self.emit(device, log_parser.body_device_ack(key), EventKind.DEVICE_ACK, key=key)

    def log_received(self, at: int, key: str, jid: str) -> None:
        self.emit(
            at, log_parser.body_message_received(key, jid), EventKind.MESSAGE_RECEIVED, jid, key
        )

    def next_key(self, number: str) -> str:
        state = self.sessions.get(number)
        if state is None:
            session = self._last_ms // 1000 if self._last_ms else 0
            while session in self.used_sessions:
                session += 1
            self.used_sessions.add(session)
            state = [session, 1]
            self.sessions[number] = state
        key = f"{state[0]}-{state[1]}"
        state[1] += 1
        return key

    def resolve_target(self, target: str) -> str:
        if target in self.labels:
            return self.labels[target]
        if target in self.by_key:
            return target
        self.fail(f"delete_message target {target!r} matches no known message")

    def insert_message(self, sim: _SimMessage, label: str | None) -> None:
        sim.id = len(self.messages) + 1
        self.messages.append(sim)
        self.by_key.setdefault(sim.key_raw, []).append(sim)
        if label is not None:
            if label in self.labels:
                self.fail(f"duplicate message label {label!r}")
            self.labels[label] = sim.key_raw
        row = self.chat_rows.get(sim.jid_raw)
        if row is None:
            self.chat_rows[sim.jid_raw] = [len(self.chat_rows) + 1, sim.id]
        else:
            row[1] = sim.id

    def check_actor(self, number: str) -> None:
        if number not in self.script.actors:
            self.fail(f"unknown actor {number!r}")

    def ack_times(self, action, outgoing: bool, group: bool):
        """The final status and the server and device ack times of a send.

        Checks the explicit ack times against the rules in the module
        docstring.
        """
        if action.delivery not in _DELIVERY_CHOICES:
            self.fail(f"unknown delivery state {action.delivery!r}")
        # The acks the row gets: pending 0, server 1, delivered 2. A group
        # fan-out yields no device ack per member, so a delivered group
        # message stays at the on-server state.
        acks = _DELIVERY_CHOICES.index(action.delivery) if outgoing else 0
        if group:
            acks = min(acks, 1)
        at = action.at_ms
        server = getattr(action, "server_ack_at_ms", None)
        device = getattr(action, "device_ack_at_ms", None)
        if server is not None and acks < 1:
            self.fail("server_ack_at_ms is set, but this message gets no server ack")
        if device is not None and acks < 2:
            self.fail("device_ack_at_ms is set, but this message gets no device ack")
        if acks >= 1 and server is None:
            server = at + SERVER_ACK_DELTA_MS
        if acks == 2 and device is None:
            device = at + DEVICE_ACK_DELTA_MS
        if server is not None and server <= at:
            self.fail("server ack must come after the send time")
        if device is not None and device <= server:
            self.fail("device ack must come after the server ack")
        return (0, 4, 5)[acks], server, device

    # -- actions

    def run(self) -> None:
        for index, action in enumerate(self.script.actions, start=1):
            self._index = index
            at = action.at_ms
            self.check_time(at)
            if self._last_ms is not None and at <= self._last_ms:
                self.fail(f"time {at} does not increase (previous {self._last_ms})")
            self._last_ms = at
            handler = getattr(self, "do_" + type(action).__name__.lower(), None)
            if handler is None:
                self.fail(f"unsupported action {type(action).__name__}")
            handler(action)

    def do_addcontact(self, action: AddContact) -> None:
        number = action.number
        self.check_actor(number)
        if number == self.owner:
            self.fail("the owner is not a contact of itself")
        existing = self.contact_by_number.get(number)
        if existing is not None and not existing.deleted:
            self.fail(f"contact {number} already present")
        jid = _user_jid(number)
        contact = _SimContact(
            row_id=len(self.contacts) + 1,
            number=number,
            jid_raw=jid,
            added_ms=action.at_ms,
            wa_name=action.wa_name or f"User{number[-4:]}",
            status_line=action.status_line or "available",
            is_whatsapp_user=action.is_whatsapp_user,
        )
        self.contacts.append(contact)
        self.contact_by_number[number] = contact
        self.addition_times.setdefault(jid, action.at_ms)
        t = action.at_ms
        self.emit(t, log_parser.body_contact_missing(jid), EventKind.CONTACT_NOT_IN_DB, jid)
        for delay, what in ((400, "profile"), (800, "status"), (1200, "avatar")):
            query = log_parser.body_contact_query(jid, what)
            self.emit(t + delay, query, EventKind.CONTACT_QUERY, jid)
        self.emit(t + 2000, log_parser.body_avatar_downloaded(jid), EventKind.AVATAR_DOWNLOADED, jid)
        if jid not in self.avatar_jids:
            self.avatar_jids.append(jid)

    def do_blockcontact(self, action: BlockContact) -> None:
        self.check_actor(action.number)
        jid = _user_jid(action.number)
        if jid in self.blocked:
            self.fail(f"{action.number} is already blocked")
        self.blocked.add(jid)
        self.emit(action.at_ms, log_parser.body_contact_blocked(jid), EventKind.CONTACT_BLOCKED, jid)

    def do_unblockall(self, action: UnblockAll) -> None:
        if not self.blocked:
            self.fail("unblock with no blocked contacts")
        self.blocked.clear()
        self.emit(action.at_ms, log_parser.body_contact_unblocked(), EventKind.CONTACT_UNBLOCKED)

    def _send_common(self, action, **columns) -> None:
        """The message row of a direct or group send, and its log lines.

        ``columns`` are the row's content fields.
        """
        sender, to = action.sender, action.to
        self.check_actor(sender)
        outgoing = sender == self.owner
        group = self.groups.get(to)
        if group is None:
            self.check_actor(to)
            if sender == to:
                self.fail("sender and recipient are the same actor")
            if self.owner not in (sender, to):
                self.fail("a direct message must involve the device owner")
            conversation = _user_jid(to if outgoing else sender)
        else:
            if _user_jid(sender) not in group.members:
                self.fail(f"{sender} is not a member of group {to!r}")
            if _user_jid(self.owner) not in group.members:
                self.fail("the owner is no longer a member of this group")
            conversation = group.gid_raw
        status, server, device = self.ack_times(action, outgoing, group is not None)
        key = self.next_key(sender)
        sim = _SimMessage(
            jid_raw=conversation,
            key_raw=key,
            from_me=outgoing,
            insert_ms=action.at_ms,
            final_status=status,
            server_ack_ms=server,
            device_ack_ms=device,
            received_ms=None if outgoing else action.at_ms,
            remote_resource=None if outgoing or group is None else _user_jid(sender),
            **columns,
        )
        if outgoing:
            self.log_sent(action.at_ms, key, (conversation,), server, device)
        else:
            self.log_received(action.at_ms, key, conversation)
        self.insert_message(sim, action.label)

    def do_sendtext(self, action: SendText) -> None:
        self._send_common(action, data=action.text)

    def do_sendmedia(self, action: SendMedia) -> None:
        preset = _MEDIA_PRESETS.get(action.media_kind)
        if preset is None:
            self.fail(f"unknown media kind {action.media_kind!r}")
        mtype, mime, prefix, ext = preset
        content = action.content
        if content is None:
            content = self.rng.randbytes(self.rng.randrange(120, 400))
        digest = hashlib.sha256(content).digest()
        server_name = action.server_filename
        if server_name is None:
            server_name = f"{self.rng.getrandbits(48):012x}{ext}"
            while server_name in self.used_server_names:
                server_name = f"{self.rng.getrandbits(48):012x}{ext}"
        self.used_server_names.add(server_name)
        outgoing = action.sender == self.owner
        day = (datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(milliseconds=action.at_ms))
        local_name = action.name or (
            f"{prefix}-{day.year:04d}{day.month:02d}{day.day:02d}-WA{self._media_counter:04d}{ext}"
        )
        self._media_counter += 1
        duration = action.duration
        if duration is None:
            duration = 0 if mtype == 1 else self.rng.randrange(3, 180)
        elif not -(2**63) <= duration < 2**63:
            self.fail(f"duration {duration} does not fit SQLite's 64-bit integers")
        if outgoing:
            directory, file_name = layout.MEDIA_SENT_DIR, local_name
        else:
            directory, file_name = layout.MEDIA_DIR, server_name
        path = f"{directory}/{file_name}"
        if not _is_file_name(file_name) or path == layout.MEDIA_SENT_DIR:
            self.fail(f"media file name {file_name!r} is not a plain file name")
        if path in self.media_files and self.media_files[path][0] != content:
            self.fail(f"media file {path} is already taken by different content")
        self._send_common(
            action,
            media_type=mtype,
            media_mime=mime,
            media_size=len(content),
            media_hash=base64.b64encode(digest).decode("ascii"),
            media_url=f"https://mms402.whatsapp.net/d/{server_name}",
            media_name=local_name if outgoing else "",
            media_duration=duration,
            raw_data=self.rng.randbytes(24) if mtype in (1, 3) else None,
        )
        self.media_files[path] = content, digest

    def do_sendvcard(self, action: SendVCard) -> None:
        vcard = action.vcard or (
            f"BEGIN:VCARD\nVERSION:3.0\nFN:{action.display_name}\nEND:VCARD"
        )
        self._send_common(action, media_type=4, data=vcard, media_name=action.display_name)

    def do_sendgeo(self, action: SendGeo) -> None:
        if fault := coordinates_fault(action.latitude, action.longitude):
            self.fail(fault)
        self._send_common(
            action,
            media_type=5,
            latitude=action.latitude,
            longitude=action.longitude,
            raw_data=self.rng.randbytes(24),
        )

    def do_broadcast(self, action: Broadcast) -> None:
        sender = action.sender
        self.check_actor(sender)
        recipients = list(action.recipients)
        if len(set(recipients)) != len(recipients) or not recipients:
            self.fail("broadcast recipients must be unique and non-empty")
        for number in recipients:
            self.check_actor(number)
        status, server, device = self.ack_times(action, sender == self.owner, group=False)
        if sender == self.owner:
            if self.owner in recipients:
                self.fail("the owner cannot be its own broadcast recipient")
            key = self.next_key(sender)
            recipient_jids = [_user_jid(n) for n in recipients]
            destination_set = ",".join(recipient_jids)
            first_label = action.label
            for jid in recipient_jids + [BROADCAST_JID]:
                sim = _SimMessage(
                    jid_raw=jid,
                    key_raw=key,
                    from_me=True,
                    final_status=status,
                    insert_ms=action.at_ms,
                    server_ack_ms=server,
                    device_ack_ms=device,
                    data=action.text,
                    needs_push=2,
                    recipient_count=len(recipients),
                    remote_resource=destination_set,
                )
                self.insert_message(sim, first_label)
                first_label = None
            self.log_sent(action.at_ms, key, recipient_jids, server, device)
        else:
            if self.owner not in recipients:
                self.fail("an incoming broadcast must include the owner")
            key = "%~" + self.next_key(sender)
            sender_jid = _user_jid(sender)
            sim = _SimMessage(
                jid_raw=sender_jid,
                key_raw=key,
                from_me=False,
                insert_ms=action.at_ms,
                received_ms=action.at_ms,
                data=action.text,
            )
            self.log_received(action.at_ms, key, sender_jid)
            self.insert_message(sim, action.label)

    def insert_control_row(self, at_ms: int, group: _SimGroup, kind: str, number: str) -> None:
        """The control row and timeline event of a group membership change.

        ``kind`` is created, joined or left; the owner creates every group.
        """
        member_jid = _user_jid(number)
        key = self.next_key(number)
        created = kind == "created"
        sim = _SimMessage(
            jid_raw=group.gid_raw,
            key_raw=key,
            from_me=created,
            insert_ms=at_ms,
            final_status=6,
            received_ms=None if created else at_ms,
            data=group.name if created else None,
            media_size=_CONTROL_CODES[kind],
            remote_resource=None if created else member_jid,
        )
        self.insert_message(sim, None)
        group.events.append((at_ms, kind, member_jid, key))

    def do_creategroup(self, action: CreateGroup) -> None:
        if action.label in self.groups:
            self.fail(f"duplicate group label {action.label!r}")
        if not action.name:
            self.fail("group name must not be empty")
        # The name ends the group/create log line: a line break would split
        # it, and the parser drops a carriage return that ends a line.
        if "\n" in action.name or action.name.endswith("\r"):
            self.fail("a group name must not hold a line feed or end in a carriage return")
        creator_jid = _user_jid(self.owner)
        gid_raw = f"{self.owner}-{action.at_ms // 1000}@g.us"
        if gid_raw in self.group_by_gid:
            self.fail("a group with this creation second already exists")
        group = _SimGroup(
            label=action.label,
            gid_raw=gid_raw,
            name=action.name,
            creator=creator_jid,
            members={creator_jid},
        )
        self.groups[action.label] = group
        self.group_by_gid[gid_raw] = group
        self.insert_control_row(action.at_ms, group, "created", self.owner)
        body = log_parser.body_group_created(gid_raw, action.name)
        self.emit(action.at_ms, body, EventKind.GROUP_CREATED, gid=gid_raw, subject=action.name)

    def do_addtogroup(self, action: AddToGroup) -> None:
        group = self.groups.get(action.group)
        if group is None:
            self.fail(f"unknown group {action.group!r}")
        self.check_actor(action.member)
        member_jid = _user_jid(action.member)
        if member_jid in group.members:
            self.fail(f"{action.member} is already a group member")
        group.members.add(member_jid)
        self.insert_control_row(action.at_ms, group, "joined", action.member)
        gid = group.gid_raw
        body = log_parser.body_group_add_requested(gid, [member_jid])
        self.emit(action.at_ms, body, EventKind.GROUP_ADD_REQUESTED, gid=gid)
        body = log_parser.body_group_member_added(gid, member_jid)
        self.emit(action.at_ms, body, EventKind.GROUP_MEMBER_ADDED, member_jid, gid=gid)

    def do_leavegroup(self, action: LeaveGroup) -> None:
        group = self.groups.get(action.group)
        if group is None:
            self.fail(f"unknown group {action.group!r}")
        member_jid = _user_jid(action.member)
        if action.member == self.owner:
            self.fail("the owner leaving its own evidence device is not modeled")
        if member_jid not in group.members:
            self.fail(f"{action.member} is not a group member")
        group.members.discard(member_jid)
        self.insert_control_row(action.at_ms, group, "left", action.member)
        body = log_parser.body_group_member_left(group.gid_raw, member_jid)
        self.emit(action.at_ms, body, EventKind.GROUP_MEMBER_LEFT, member_jid, gid=group.gid_raw)

    def do_deletemessage(self, action: DeleteMessage) -> None:
        key = self.resolve_target(action.target)
        rows = [m for m in self.by_key.get(key, []) if m.delete_ms is None]
        if not rows:
            self.fail(f"message {action.target!r} is already deleted")
        latest = max(m.final_event_ms() for m in rows)
        if action.at_ms <= latest:
            self.fail(
                f"delete at {action.at_ms} precedes the message's last "
                f"delivery event at {latest}"
            )
        for sim in rows:
            sim.delete_ms = action.at_ms
        self.deleted_keys[key] = {"deleted_ms": action.at_ms, "rows": rows}
        self.emit(action.at_ms, log_parser.body_message_deleted(key), EventKind.MESSAGE_DELETED, key=key)

    def do_deletecontact(self, action: DeleteContact) -> None:
        contact = self.contact_by_number.get(action.number)
        if contact is None or contact.deleted:
            self.fail(f"contact {action.number} is not present")
        contact.deleted = True
        # Contact deletions log no identifier; the avatar files survive.
        self.emit(action.at_ms, "contact/delete completed")

    def do_snapshotbackup(self, action: SnapshotBackup) -> None:
        stamp = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(
            milliseconds=action.at_ms
        )
        base = f"msgstore-{stamp.year:04d}-{stamp.month:02d}-{stamp.day:02d}"
        name = f"{base}.crypt"
        counter = 2
        taken = {n for n, _ in self.snapshots}
        while name in taken:
            name = f"{base}.{counter}.crypt"
            counter += 1
        self.snapshots.append((name, action.at_ms))


# --- bundle materialization ---------------------------------------------------

_WA_SCHEMA = """
CREATE TABLE android_metadata (locale TEXT);
CREATE TABLE wa_contacts (
    _id INTEGER PRIMARY KEY AUTOINCREMENT,
    jid TEXT NOT NULL,
    is_whatsapp_user INTEGER,
    status TEXT,
    number TEXT,
    raw_contact_id INTEGER,
    display_name TEXT,
    phone_type INTEGER,
    phone_label TEXT,
    unseen_msg_count INTEGER,
    photo_ts INTEGER,
    thumb_ts INTEGER,
    photo_id_timestamp INTEGER,
    given_name TEXT,
    family_name TEXT,
    wa_name TEXT,
    sort_name TEXT
);
"""

_MSGSTORE_SCHEMA = """
CREATE TABLE messages (
    _id INTEGER PRIMARY KEY AUTOINCREMENT,
    key_remote_jid TEXT NOT NULL,
    key_from_me INTEGER,
    key_id TEXT NOT NULL,
    status INTEGER,
    needs_push INTEGER,
    data TEXT,
    timestamp INTEGER,
    media_url TEXT,
    media_mime_type TEXT,
    media_wa_type INTEGER,
    media_size INTEGER,
    media_name TEXT,
    media_hash TEXT,
    media_duration INTEGER,
    latitude REAL,
    longitude REAL,
    thumb_image BLOB,
    remote_resource TEXT,
    received_timestamp INTEGER,
    send_timestamp INTEGER,
    receipt_server_timestamp INTEGER,
    receipt_device_timestamp INTEGER,
    raw_data BLOB,
    recipient_count INTEGER
);
CREATE TABLE chat_list (
    _id INTEGER PRIMARY KEY AUTOINCREMENT,
    key_remote_jid TEXT,
    message_table_id INTEGER
);
"""

def _contact_columns(contact: _SimContact) -> dict:
    number = contact.number
    return {
        "_id": contact.row_id,
        "jid": contact.jid_raw,
        "is_whatsapp_user": 1 if contact.is_whatsapp_user else 0,
        "status": contact.status_line,
        "number": f"+{number}",
        "raw_contact_id": contact.row_id,
        "display_name": f"Contact {number[-4:]}",
        "phone_type": 2,
        "phone_label": "mobile",
        "unseen_msg_count": 0,
        "photo_ts": 0,
        "thumb_ts": contact.added_ms // 1000 - 86400,
        "photo_id_timestamp": contact.added_ms + 2000,
        "given_name": f"Given{number[-4:]}",
        "family_name": f"Family{number[-4:]}",
        "wa_name": contact.wa_name,
        "sort_name": f"Contact {number[-4:]}",
    }


def _insert(conn: sqlite3.Connection, table: str, columns, rows) -> None:
    """Insert ``rows``, each a tuple of values in ``columns`` order."""
    conn.executemany(
        f"INSERT INTO {table} ({', '.join(columns)}) VALUES ({', '.join('?' * len(columns))})",
        rows,
    )


def _sqlite_image(schema: str, tables) -> bytes:
    """The file bytes of a SQLite store of ``schema`` holding ``(table, rows)``.

    Each table's rows are dicts with the same keys, inserted in order.
    """
    conn = sqlite3.connect(":memory:")
    try:
        conn.executescript(schema)
        for table, rows in tables:
            if rows:
                _insert(conn, table, list(rows[0]), [tuple(row.values()) for row in rows])
        conn.commit()
        return conn.serialize()
    finally:
        conn.close()


def _write_rows(conn: sqlite3.Connection, table: str, gone, changed, new) -> None:
    """Delete the ids ``gone``, then update ``changed`` in place, then insert ``new``.

    ``changed`` and ``new`` hold rows as dicts whose first key is ``_id``;
    every list is in id order.
    """
    if gone:
        conn.executemany(f"DELETE FROM {table} WHERE _id = ?", [(row_id,) for row_id in gone])
    if changed:
        assignments = ", ".join(f"{c} = ?" for c in list(changed[0])[1:])
        values = [tuple(row.values()) for row in changed]
        conn.executemany(
            f"UPDATE {table} SET {assignments} WHERE _id = ?", [v[1:] + v[:1] for v in values]
        )
    if new:
        _insert(conn, table, list(new[0]), [tuple(row.values()) for row in new])


def _expected_message(columns: dict) -> MessageRecord:
    key_raw = columns["key_id"]
    try:
        key = parse_message_key(key_raw)
    except MalformedKey:
        key = None
    rr_raw = columns["remote_resource"]
    rr_jid = None
    if rr_raw:
        candidate = classify_jid(rr_raw)
        if candidate.is_parsed:
            rr_jid = candidate
    return MessageRecord(
        id=columns["_id"],
        key_remote_jid=classify_jid(columns["key_remote_jid"]),
        key_id_raw=key_raw,
        key_id=key,
        from_me=bool(columns["key_from_me"]),
        status_code=columns["status"],
        timestamp=columns["timestamp"],
        received_timestamp=columns["received_timestamp"],
        receipt_server_timestamp=columns["receipt_server_timestamp"],
        receipt_device_timestamp=columns["receipt_device_timestamp"],
        send_timestamp=columns["send_timestamp"],
        needs_push=columns["needs_push"],
        recipient_count=columns["recipient_count"],
        remote_resource_raw=rr_raw,
        remote_resource=rr_jid,
        media_wa_type=columns["media_wa_type"],
        data=columns["data"],
        raw_data=columns["raw_data"],
        media_hash=columns["media_hash"],
        media_url=columns["media_url"],
        media_mime_type=columns["media_mime_type"],
        media_size=columns["media_size"],
        media_name=columns["media_name"],
        media_duration=columns["media_duration"],
        latitude=columns["latitude"],
        longitude=columns["longitude"],
        thumb_image=columns["thumb_image"],
    )


def _expected_contact(columns: dict) -> ContactRecord:
    return ContactRecord(
        id=columns["_id"],
        jid=classify_jid(columns["jid"]),
        is_whatsapp_user=bool(columns["is_whatsapp_user"]),
        unseen_msg_count=columns["unseen_msg_count"],
        photo_ts=columns["photo_ts"],
        thumb_ts=columns["thumb_ts"],
        photo_id_timestamp=columns["photo_id_timestamp"],
        wa_name=columns["wa_name"],
        status_line=columns["status"],
        phonebook={c: columns[c] for c in db_reader.PHONEBOOK_COLUMNS},
    )


def _expected_log_event(record: tuple, line: str, number: int) -> LogEvent:
    """The event the parser must read from ``line``, the rendering of ``record``."""
    ms, _, _, kind, jid, key, gid, subject = record
    return LogEvent(
        occurred_at=ms,
        kind=kind,
        subject_jid=classify_jid(jid) if jid else None,
        message_key=parse_message_key(key) if key else None,
        group_id=parse_group_id(gid) if gid else None,
        group_subject=subject,
        raw_line=line,
        source_file="whatsapp.log",
        line_number=number,
    )


def _avatar_bytes(jid_raw: str) -> bytes:
    return b"\xff\xd8\xff\xe0" + jid_raw.encode("ascii", "replace") + b"\x00" * 8


def _content_sig(columns: dict) -> tuple:
    mtype = columns["media_wa_type"]
    if mtype in (1, 2, 3):
        return ("media", columns["media_mime_type"], columns["media_hash"])
    if mtype == 4:
        return ("vcard", columns["media_name"] or "")
    if mtype == 5:
        return ("geo", f"{columns['latitude']:.6f}", f"{columns['longitude']:.6f}")
    return ("text", columns["data"] or "")


def generate_bundle(script: ScenarioScript, out_dir: str | Path) -> ForgeResult:
    """Play a scenario and write the full artifact tree under ``out_dir``.

    Returns the expected parse result (a CaseBundle equal to what the
    readers must produce from the files) together with the expected
    analytical ground truth. Nothing is written unless ``out_dir`` is
    new or an empty directory and the whole script plays without error.
    """
    root = Path(out_dir)
    if root.exists() and (not root.is_dir() or any(root.iterdir())):
        raise StructuralError(f"output {root} exists and is not an empty directory")
    if script.owner not in script.actors:
        raise InvalidScript("the owner must be listed among the actors")
    if len(set(script.actors)) != len(script.actors):
        raise InvalidScript("actor numbers must be unique")
    for number in script.actors:
        if not (number.isascii() and number.isdigit()):
            raise InvalidScript(f"actor {number!r} is not a plain phone number")

    sim = _Simulator(script)
    sim.run()

    for rel in (
        layout.DB_DIR,
        layout.AVATARS_DIR,
        layout.LOGS_DIR,
        layout.BACKUPS_DIR,
        layout.PROFILE_PICTURES_DIR,
        layout.MEDIA_SENT_DIR,
    ):
        (root / rel).mkdir(parents=True, exist_ok=True)

    # contacts database
    live_contacts = [c for c in sim.contacts if not c.deleted]
    contact_rows = [_contact_columns(c) for c in live_contacts]
    (root / layout.WA_DB).write_bytes(
        _sqlite_image(
            _WA_SCHEMA,
            [("android_metadata", [{"locale": "en_US"}]), ("wa_contacts", contact_rows)],
        )
    )

    # The chat database is one store advanced through the snapshots in time
    # order, which is script order, and then past every event to the live
    # rows. A row's columns change only at its insert, ack and delete times,
    # so each step writes just the rows with an event since the step before,
    # taken up to and including its time. A backup is the store's image as it
    # stood at its snapshot, written at once.
    events = sorted(
        (ms, m.id)
        for m in sim.messages
        for ms in (m.insert_ms, m.server_ack_ms, m.device_ack_ms, m.delete_ms)
        if ms is not None
    )
    held: dict[int, dict] = {}  # _id -> the row the store holds
    listed: set[str] = set()  # the conversations chat_list holds
    # A (conversation, key) pair names one row, so the held rows whose pair
    # is not live are those deleted later: the only rows that the parsed
    # backups and the analytics oracle read. A record is built when its row
    # changes, not once per backup.
    doomed: dict[int, MessageRecord] = {}  # _id -> the held row's record
    expected_backups = []
    taken = 0
    store = sqlite3.connect(":memory:")
    try:
        store.executescript(_MSGSTORE_SCHEMA)
        # The last step, to the live rows, takes every event: each time falls
        # before the end of the calendar.
        for name, as_of in [*sim.snapshots, (None, CALENDAR_END_MS)]:
            touched = set()
            while taken < len(events) and events[taken][0] <= as_of:
                touched.add(events[taken][1])
                taken += 1
            gone, changed, new = [], [], []
            inserted: dict[str, int] = {}  # conversation -> largest id inserted
            for row_id in sorted(touched):
                m = sim.messages[row_id - 1]
                alive = m.delete_ms is None or m.delete_ms > as_of
                if row_id not in held:  # inserted since the step before
                    inserted[m.jid_raw] = row_id
                    if alive:
                        held[row_id] = row = m.materialize(as_of)
                        new.append(row)
                        if m.delete_ms is not None:
                            doomed[row_id] = _expected_message(row)
                elif not alive:
                    gone.append(row_id)
                    del held[row_id]
                    doomed.pop(row_id, None)
                else:
                    row = m.materialize(as_of)
                    if row != held[row_id]:
                        held[row_id] = row
                        changed.append(row)
                        if row_id in doomed:
                            doomed[row_id] = _expected_message(row)
            chats = sorted(
                (
                    {"_id": sim.chat_rows[jid][0], "key_remote_jid": jid, "message_table_id": last}
                    for jid, last in inserted.items()
                ),
                key=lambda row: row["_id"],
            )
            with store:
                _write_rows(store, "messages", gone, changed, new)
                _write_rows(
                    store,
                    "chat_list",
                    (),
                    [row for row in chats if row["key_remote_jid"] in listed],
                    [row for row in chats if row["key_remote_jid"] not in listed],
                )
            listed.update(inserted)
            if name is not None:
                (root / layout.BACKUPS_DIR / name).write_bytes(encrypt_fixture(store.serialize()))
                records = tuple(doomed[row_id] for row_id in sorted(doomed))
                expected_backups.append(BackupSet(name=name, messages=records))
        (root / layout.MSGSTORE_DB).write_bytes(store.serialize())
    finally:
        store.close()
    live_rows = [held[row_id] for row_id in sorted(held)]
    chat_rows = [
        {"_id": pair[0], "key_remote_jid": jid, "message_table_id": pair[1]}
        for jid, pair in sorted(sim.chat_rows.items(), key=lambda kv: kv[1][0])
    ]
    expected_backups.sort(key=lambda backup: backup.name)

    # log file: (ms, emission order) is unique, so sorting compares no later field
    ordered_log = sorted(sim.log)
    lines = [
        log_parser.format_line(record[0], record[2], script.tz_offset_minutes)
        for record in ordered_log
    ]
    log_path = root / layout.MAIN_LOG
    log_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected_events = tuple(
        _expected_log_event(record, line, number)
        for number, (record, line) in enumerate(zip(ordered_log, lines), start=1)
    )

    # avatars, media, settings
    avatar_inventory = []
    for jid_raw in sim.avatar_jids:
        data = _avatar_bytes(jid_raw)
        for directory in (layout.AVATARS_DIR, layout.PROFILE_PICTURES_DIR):
            path = f"{directory}/{jid_raw}{layout.AVATAR_SUFFIX}"
            (root / path).write_bytes(data)
            avatar_inventory.append(AvatarFile(jid_raw=jid_raw, path=path))
    avatar_inventory.sort(key=lambda a: (a.jid_raw, a.path))
    media_inventory = []
    for path, (content, digest) in sorted(sim.media_files.items()):
        (root / path).write_bytes(content)
        media_inventory.append(
            MediaFile(path=path, size_bytes=len(content), known_sha256=digest.hex())
        )
    (root / layout.ME_FILE).write_text(script.owner, encoding="ascii")
    (root / layout.ME_AVATAR).write_bytes(_avatar_bytes(_user_jid(script.owner)))

    # expected parse result
    expected_contacts = tuple(_expected_contact(row) for row in contact_rows)
    expected_messages = tuple(_expected_message(row) for row in live_rows)
    expected_chat_list = tuple(
        ChatListRecord(
            id=row["_id"],
            key_remote_jid=classify_jid(row["key_remote_jid"]),
            message_table_id=row["message_table_id"],
        )
        for row in chat_rows
    )
    predicted = WarningLog()
    db_reader.check_chat_list_consistency(expected_chat_list, expected_messages, predicted)
    bundle = CaseBundle(
        contacts=expected_contacts,
        messages=expected_messages,
        chat_list=expected_chat_list,
        log_events=expected_events,
        registered_number=script.owner,
        own_avatar_present=True,
        media_inventory=tuple(media_inventory),
        avatar_inventory=tuple(avatar_inventory),
        backups=tuple(expected_backups),
        warnings=predicted.items,
    )
    expected = _expected_analytics(sim, live_rows, expected_backups)
    return ForgeResult(root=root, bundle=bundle, expected=expected)


def _expected_analytics(
    sim: _Simulator, live_rows: list[dict], backups: list[BackupSet]
) -> ExpectedAnalytics:
    """Ground truth from the simulation, its live rows and the parsed backups.

    A parsed backup holds the rows it keeps that are not live, the only
    rows a deleted key is recovered from.
    """
    retained = [record for backup in backups for record in backup.messages]
    backup_keys = {record.key_id_raw for record in retained}
    live_keys = {m.key_raw for m in sim.messages if m.delete_ms is None}

    # histories: live rows plus rows only a backup retains
    entries: dict[str, list] = {}

    def add_entry(columns: dict, source: str) -> None:
        from_me = bool(columns["key_from_me"])
        received = columns["received_timestamp"]
        effective = (
            received
            if not from_me and received is not None and received > 0
            else columns["timestamp"]
        )
        line = (
            columns["key_id"],
            "outgoing" if from_me else "incoming",
            effective,
            _content_sig(columns),
            source,
        )
        entries.setdefault(columns["key_remote_jid"], []).append(
            (effective, columns["_id"], line)
        )

    for row in live_rows:
        add_entry(row, "live")
    for row_id in sorted({record.id for record in retained}):
        add_entry(sim.messages[row_id - 1].materialize(None), "recovered-from-backup")
    histories = {
        jid: tuple(line for _, _, line in sorted(rows, key=lambda r: (r[0], r[1])))
        for jid, rows in sorted(entries.items())
    }

    # partner resolution for live rows
    partners: dict[int, tuple] = {}
    broadcast_rows: dict[str, list[_SimMessage]] = {}
    for m in sim.messages:
        if m.delete_ms is not None:
            continue
        if m.final_status == 6:
            member = m.remote_resource or sim.group_by_gid[m.jid_raw].creator
            partners[m.id] = ("group-control", frozenset({m.jid_raw}), member, False)
        elif m.key_raw.startswith("%~"):
            partners[m.id] = ("broadcast-received", frozenset({m.jid_raw}), m.jid_raw, False)
        elif m.needs_push == 2 or m.jid_raw == BROADCAST_JID:
            broadcast_rows.setdefault(m.key_raw, []).append(m)
        elif m.jid_raw.endswith("@g.us"):
            partners[m.id] = (
                "group",
                frozenset({m.jid_raw}),
                m.remote_resource,
                m.remote_resource is None,
            )
        else:
            partners[m.id] = ("direct", frozenset({m.jid_raw}), None, False)
    broadcasts = []
    for key in sorted(broadcast_rows):
        rows = broadcast_rows[key]
        destinations = set()
        self_present = False
        count = None
        for row in rows:
            if row.jid_raw == BROADCAST_JID:
                self_present = True
            else:
                destinations.add(row.jid_raw)
            if row.remote_resource:
                destinations.update(row.remote_resource.split(","))
            count = row.recipient_count if count is None else count
        destinations = frozenset(destinations)
        broadcasts.append((key, destinations, count, self_present))
        for row in rows:
            partners[row.id] = ("broadcast-sent", destinations, None, True)

    # group timelines (db events unless the control row was deleted)
    timelines = {}
    for gid_raw in sorted(sim.group_by_gid):
        group = sim.group_by_gid[gid_raw]
        events = []
        for at_ms, kind, member, key in group.events:
            row = next(s for s in sim.by_key[key] if s.jid_raw == gid_raw)
            source = "db" if row.delete_ms is None else "log"
            events.append((at_ms, kind, member, source))
        timelines[gid_raw] = (group.name, tuple(events))

    # deleted messages
    deleted = set()
    for key, info in sim.deleted_keys.items():
        if key in live_keys:
            continue
        rows = info["rows"]
        sample = rows[0]
        partner_set: set[str] = set()
        sent_ms = received_ms = None
        state = None
        if sample.final_status == 6:
            pass  # control traffic is logged through group events only
        elif sample.from_me:
            sent_ms = sample.insert_ms
            partner_set = {
                r.jid_raw for r in rows if r.jid_raw != BROADCAST_JID
            }
            if sample.needs_push == 2 and sample.remote_resource:
                partner_set.update(sample.remote_resource.split(","))
            if sample.device_ack_ms is not None:
                state = "delivered"
            elif sample.server_ack_ms is not None:
                state = "on-server"
            else:
                state = "pending-local"
        else:
            received_ms = sample.received_ms
            partner_set = {sample.jid_raw}
            state = "received"
        deleted.add(
            (
                key,
                info["deleted_ms"],
                sent_ms,
                received_ms,
                frozenset(partner_set),
                state,
                key in backup_keys,
            )
        )

    deleted_contacts = frozenset(
        (c.jid_raw, sim.addition_times[c.jid_raw])
        for c in sim.contacts
        if c.deleted and not any(
            o.number == c.number and not o.deleted for o in sim.contacts
        )
    )
    return ExpectedAnalytics(
        histories=histories,
        partners=partners,
        broadcasts=tuple(broadcasts),
        group_timelines=timelines,
        deleted_messages=frozenset(deleted),
        deleted_contacts=deleted_contacts,
        addition_times=dict(sim.addition_times),
    )


# --- script serialization ------------------------------------------------------

_ACTION_NAMES = {
    AddContact: "add_contact",
    BlockContact: "block_contact",
    UnblockAll: "unblock_all",
    SendText: "send_text",
    SendMedia: "send_media",
    SendVCard: "send_vcard",
    SendGeo: "send_geo",
    Broadcast: "broadcast",
    CreateGroup: "create_group",
    AddToGroup: "add_to_group",
    LeaveGroup: "leave_group",
    DeleteMessage: "delete_message",
    DeleteContact: "delete_contact",
    SnapshotBackup: "snapshot_backup",
}
_ACTIONS_BY_NAME = {name: cls for cls, name in _ACTION_NAMES.items()}


# The JSON values that may fill a script field, by the field's annotation,
# and their name in JSON's terms. JSON has no bytes: only ``content_hex``,
# once decoded, fills ``content``.
_JSON_TYPES = {
    "int": (int, "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "bytes | None": ((bytes, type(None)), "given as content_hex"),
    "tuple[str, ...]": (list, "a list of strings"),
}


def _check_json_field(where: str, name: str, annotation: str, value) -> None:
    """Refuse a JSON value that cannot fill a field of ``annotation``.

    A boolean fills only a bool field and a list holds only strings. Text
    must be encodable as UTF-8, which a lone surrogate escape is not.
    """
    types, description = _JSON_TYPES[annotation]
    items = value if isinstance(value, list) else [value]
    if (
        not isinstance(value, types)
        or isinstance(value, bool) != (annotation == "bool")
        or (isinstance(value, list) and not all(isinstance(item, str) for item in items))
    ):
        raise InvalidScript(f"{where}: {name!r} is not {description}")
    try:
        for item in items:
            if isinstance(item, str):
                item.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidScript(f"{where}: {name!r} is not UTF-8 text: {exc}") from exc


def _parse_at(value, tz_offset_minutes: int) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    text = str(value).strip()
    m = re.match(
        r"^(\d{4})-(\d{2})-(\d{2})[ T](\d{2}):(\d{2}):(\d{2})(?:\.(\d{1,3}))?"
        r"(?: ?([+-]\d{2}:?\d{2})|(Z))?$",
        text,
    )
    if not m:
        raise InvalidScript(f"unparsable action time {value!r}")
    year, month, day, hour, minute, second = (int(m.group(i)) for i in range(1, 7))
    millis = int((m.group(7) or "0").ljust(3, "0"))
    zone = m.group(8) or m.group(9)
    try:
        offset = parse_tz_offset(zone) if zone else tz_offset_minutes
        stamp = datetime(
            year, month, day, hour, minute, second, millis * 1000, tzinfo=timezone.utc
        )
    except ValueError as exc:
        raise InvalidScript(f"unparsable action time {value!r}: {exc}") from exc
    return int(stamp.timestamp() * 1000) - offset * 60_000


def script_from_json(source: str | dict) -> ScenarioScript:
    """Load a scenario script from JSON text or an already-parsed dict."""
    # A script is outside input: check its shape before reading it.
    try:
        spec = json.loads(source) if isinstance(source, str) else source
    except json.JSONDecodeError as exc:
        raise InvalidScript(f"script is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise InvalidScript("script is not a JSON object")
    version = spec.get("version", SCRIPT_FORMAT_VERSION)
    if version != SCRIPT_FORMAT_VERSION:
        raise InvalidScript(f"unsupported script version {version}")
    try:
        owner = spec["owner"]
        actors = spec["actors"]
    except KeyError as exc:
        raise InvalidScript(f"script lacks required field {exc}") from exc
    _check_json_field("script", "owner", "str", owner)
    _check_json_field("script", "actors", "tuple[str, ...]", actors)
    entries = spec.get("actions", [])
    if not isinstance(entries, list):
        raise InvalidScript("script field 'actions' is not a list")
    try:
        tz_offset = parse_tz_offset(spec.get("tz", "+00:00"))
        seed = int(spec.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise InvalidScript(f"script field 'tz' or 'seed': {exc}") from exc
    actions = []
    for index, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            raise InvalidScript(f"action #{index} is not a JSON object")
        entry = dict(entry)
        try:
            name = entry.pop("do")
            at = _parse_at(entry.pop("at"), tz_offset)
        except KeyError as exc:
            raise InvalidScript(f"action #{index} lacks {exc}") from exc
        cls = _ACTIONS_BY_NAME.get(name) if isinstance(name, str) else None
        if cls is None:
            raise InvalidScript(f"action #{index}: unknown action {name!r}")
        if "content_hex" in entry:
            try:
                entry["content"] = bytes.fromhex(entry.pop("content_hex"))
            except (TypeError, ValueError) as exc:
                raise InvalidScript(f"action #{index}: content_hex: {exc}") from exc
        if "kind" in entry and cls is SendMedia:
            entry["media_kind"] = entry.pop("kind")
        annotations = {f.name: f.type for f in fields(cls)}
        for key, value in entry.items():
            if key in annotations:  # an unknown field is refused below
                _check_json_field(f"action #{index}", key, annotations[key], value)
        if "recipients" in entry:
            entry["recipients"] = tuple(entry["recipients"])
        try:
            actions.append(cls(at_ms=at, **entry))
        except TypeError as exc:
            raise InvalidScript(f"action #{index}: {exc}") from exc
    return ScenarioScript(
        owner=owner,
        actors=tuple(actors),
        actions=tuple(actions),
        seed=seed,
        tz_offset_minutes=tz_offset,
    )


def script_to_json(script: ScenarioScript) -> str:
    """Serialize a script back to its JSON form (epoch times, version 1)."""
    actions = []
    for action in script.actions:
        entry = {"do": _ACTION_NAMES[type(action)], "at": action.at_ms}
        for key, value in vars(action).items():
            if key == "at_ms" or value is None:
                continue
            if isinstance(value, bytes):
                entry["content_hex"] = value.hex()
            elif isinstance(value, tuple):
                entry[key] = list(value)
            else:
                entry[key] = value
        actions.append(entry)
    return json.dumps(
        {
            "version": SCRIPT_FORMAT_VERSION,
            "owner": script.owner,
            "actors": list(script.actors),
            "tz": format_tz_offset(script.tz_offset_minutes),
            "seed": script.seed,
            "actions": actions,
        },
        indent=2,
        sort_keys=True,
    )


# --- random scenario generation ---------------------------------------------------


def random_script(seed: int, max_actions: int = 200) -> ScenarioScript:
    """A reproducible, valid scenario: same seed, same script."""
    rng = random.Random(seed)

    def number() -> str:
        return "39" + "".join(str(rng.randrange(10)) for _ in range(9))

    owner = number()
    others = []
    while len(others) < rng.randrange(3, 6):
        n = number()
        if n != owner and n not in others:
            others.append(n)
    actors = (owner, *others)

    t = 1370073600000 + rng.randrange(0, 30) * 86_400_000  # around mid-2013
    actions: list = []
    added: set[str] = set()
    removable: set[str] = set()
    blocked: set[str] = set()
    groups: dict[str, set[str]] = {}
    group_seq = 0
    live_msgs: list[tuple[str, int]] = []  # (label, final_event_ms)
    label_seq = 0

    def next_label() -> str:
        nonlocal label_seq
        label_seq += 1
        return f"m{label_seq}"

    n_actions = rng.randrange(max(5, max_actions // 2), max_actions + 1)
    for _ in range(n_actions):
        t += rng.randrange(10_000, 900_000)
        choices: list[tuple[str, int]] = [("send_text", 8)]
        if len(added) < len(others):
            choices.append(("add_contact", 4))
        if added:
            choices.append(("delete_contact", 1))
        unblocked = [n for n in others if n not in blocked]
        if unblocked:
            choices.append(("block_contact", 1))
        if blocked:
            choices.append(("unblock_all", 1))
        if len(groups) < 2:
            choices.append(("create_group", 1))
        if any(set(others) - members for members in groups.values()):
            choices.append(("add_to_group", 2))
        if any(len(members) > 1 for members in groups.values()):
            choices.append(("leave_group", 1))
        deletable = [lab for lab, final in live_msgs if final < t]
        if deletable:
            choices.append(("delete_message", 2))
        choices.extend([("send_media", 2), ("send_vcard", 1), ("send_geo", 1)])
        if len(others) >= 2:
            choices.append(("broadcast", 1))
        choices.append(("snapshot_backup", 1))

        kind = rng.choices([c for c, _ in choices], weights=[w for _, w in choices])[0]
        if kind == "add_contact":
            candidates = sorted(set(others) - added)
            n = rng.choice(candidates)
            actions.append(AddContact(at_ms=t, number=n))
            added.add(n)
        elif kind == "delete_contact":
            n = rng.choice(sorted(added))
            actions.append(DeleteContact(at_ms=t, number=n))
            added.discard(n)
        elif kind == "block_contact":
            n = rng.choice(sorted(unblocked))
            actions.append(BlockContact(at_ms=t, number=n))
            blocked.add(n)
        elif kind == "unblock_all":
            actions.append(UnblockAll(at_ms=t))
            blocked.clear()
        elif kind == "create_group":
            group_seq += 1
            label = f"g{group_seq}"
            actions.append(CreateGroup(at_ms=t, name=f"group {group_seq}", label=label))
            groups[label] = {owner}
        elif kind == "add_to_group":
            label = rng.choice(
                sorted(l for l, members in groups.items() if set(others) - members)
            )
            candidates = sorted(set(others) - groups[label])
            member = rng.choice(candidates)
            actions.append(AddToGroup(at_ms=t, group=label, member=member))
            groups[label].add(member)
        elif kind == "leave_group":
            label = rng.choice(sorted(l for l, members in groups.items() if len(members) > 1))
            member = rng.choice(sorted(groups[label] - {owner}))
            actions.append(LeaveGroup(at_ms=t, group=label, member=member))
            groups[label].discard(member)
        elif kind == "delete_message":
            target = rng.choice(sorted(deletable))
            actions.append(DeleteMessage(at_ms=t, target=target))
            live_msgs = [(lab, fin) for lab, fin in live_msgs if lab != target]
        elif kind == "snapshot_backup":
            actions.append(SnapshotBackup(at_ms=t))
        elif kind == "broadcast":
            if rng.random() < 0.7:
                recipients = tuple(rng.sample(others, rng.randrange(2, min(4, len(others) + 1))))
                actions.append(
                    Broadcast(at_ms=t, sender=owner, recipients=recipients, text=f"bc {t}")
                )
            else:
                sender = rng.choice(others)
                actions.append(
                    Broadcast(at_ms=t, sender=sender, recipients=(owner,), text=f"bc {t}")
                )
        else:
            # some flavor of message exchange, direct or into a group
            group_targets = [
                label for label, members in groups.items() if len(members) > 1
            ]
            use_group = group_targets and rng.random() < 0.3
            label = next_label()
            if use_group:
                to = rng.choice(sorted(group_targets))
                member_pool = sorted(groups[to] - {owner})
                sender = owner if rng.random() < 0.5 else rng.choice(member_pool)
            else:
                other = rng.choice(others)
                sender, to = (owner, other) if rng.random() < 0.5 else (other, owner)
            delivery = rng.choices(_DELIVERY_CHOICES, weights=[1, 2, 7])[0]
            final = t + (
                0
                if delivery == _PENDING
                else SERVER_ACK_DELTA_MS
                if delivery == _SERVER
                else DEVICE_ACK_DELTA_MS
            )
            if kind == "send_media":
                actions.append(
                    SendMedia(
                        at_ms=t,
                        sender=sender,
                        to=to,
                        media_kind=rng.choice(("image", "audio", "video")),
                        label=label,
                        delivery=delivery,
                    )
                )
            elif kind == "send_vcard":
                actions.append(
                    SendVCard(
                        at_ms=t,
                        sender=sender,
                        to=to,
                        display_name=f"Card {label}",
                        label=label,
                        delivery=delivery,
                    )
                )
            elif kind == "send_geo":
                actions.append(
                    SendGeo(
                        at_ms=t,
                        sender=sender,
                        to=to,
                        latitude=round(rng.uniform(-89.0, 89.0), 6),
                        longitude=round(rng.uniform(-179.0, 179.0), 6),
                        label=label,
                        delivery=delivery,
                    )
                )
            else:
                actions.append(
                    SendText(
                        at_ms=t,
                        sender=sender,
                        to=to,
                        text=f"message {label}",
                        label=label,
                        delivery=delivery,
                    )
                )
            live_msgs.append((label, final))
    return ScenarioScript(owner=owner, actors=actors, actions=tuple(actions), seed=seed)
