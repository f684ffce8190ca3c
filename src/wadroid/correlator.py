"""Correlation procedures over a parsed evidence bundle.

Each operation here combines databases, logs, backups, and file
inventories to answer one investigative question: conversation
chronology, message delivery state, communication partners, group
membership over time, deleted messages/contacts, media linkage, and
registered-identity checks.

The results hold rows, not copies of their fields: a history entry is a
message row and its source (live, or recovered from a backup), and a
row's delivery state is ``message_state(row)``. The report derives the
rest from the row; ``report.content_json`` shapes its typed content.

Every inference carries a confidence note and cites the records and log
lines it was derived from. The log-based procedures are only as good as
the surviving log window; the report states that caveat once, next to
the window itself, rather than in every finding. Device timestamps come
from the local clock, so absolute times from different devices are never
treated as comparable ground truth.

Every function reads an immutable CaseBundle. Only ``correlate_media``
also reads files: it hashes media files, and warns about one it cannot
read. Findings merge deterministically by (category, subject, time).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import MalformedGroupId, os_reason
from .model import (
    CaseBundle,
    CONTACT_ADDITION_KINDS,
    EventKind,
    GROUP_MEMBERSHIP_KINDS,
    GroupId,
    JidKind,
    KEY_BEARING_KINDS,
    LogEvent,
    MEDIA_KINDS,
    MessageRecord,
    ParseWarning,
    WaJid,
    media_digest,
    parse_group_id,
    ts_present,
    warn_to,
)

# --- message state ----------------------------------------------------------


class StateCode(Enum):
    RECEIVED_INCOMING = "received"
    PENDING_LOCAL = "pending-local"
    ON_SERVER = "on-server"
    DELIVERED_TO_DEVICE = "delivered"
    CONTROL = "control"
    UNKNOWN = "unknown"


class MessageState(NamedTuple):
    """Delivery state of one message with its state-change timestamps.

    Outgoing messages progress pending-local -> on-server -> delivered;
    the two receipt timestamps record when each acknowledgement arrived.
    """

    code: StateCode
    status_code: int
    sent_at: int | None = None
    server_ack_at: int | None = None
    device_ack_at: int | None = None
    received_at: int | None = None

    def label(self) -> str:
        if self.code is StateCode.UNKNOWN:
            return f"UnknownStatus({self.status_code})"
        return self.code.value


def message_state(record: MessageRecord) -> MessageState:
    """Map (direction, status) to the delivery state machine.

    Codebook: outgoing status 0 = still waiting on the local device,
    4 = delivered to the central server only, 5 = delivered to the
    recipient's device; status 6 = group control message regardless of
    direction; incoming status 0 = received. Anything else is preserved
    as UnknownStatus(n).
    """
    status = record.status_code
    if status == MessageRecord.STATUS_CONTROL:
        return MessageState(code=StateCode.CONTROL, status_code=status)
    if record.from_me:
        code = {
            0: StateCode.PENDING_LOCAL,
            MessageRecord.STATUS_ON_SERVER: StateCode.ON_SERVER,
            MessageRecord.STATUS_DELIVERED: StateCode.DELIVERED_TO_DEVICE,
        }.get(status, StateCode.UNKNOWN)
        server_ack = record.receipt_server_timestamp
        device_ack = record.receipt_device_timestamp
        server_ack = server_ack if ts_present(server_ack) else None
        device_ack = device_ack if ts_present(device_ack) else None
        if code is StateCode.PENDING_LOCAL:
            server_ack = device_ack = None
        elif code is StateCode.ON_SERVER:
            device_ack = None
        return MessageState(
            code=code,
            status_code=status,
            sent_at=record.timestamp,
            server_ack_at=server_ack,
            device_ack_at=device_ack,
        )
    code = StateCode.RECEIVED_INCOMING if status == 0 else StateCode.UNKNOWN
    received = (
        record.received_timestamp
        if ts_present(record.received_timestamp)
        else record.timestamp
    )
    return MessageState(code=code, status_code=status, received_at=received)


# --- findings ---------------------------------------------------------------


class FindingCategory(str, Enum):
    DELETED_CONTACT = "deleted_contact"
    DELETED_MESSAGE = "deleted_message"
    BLOCK_STATUS = "block_status"
    MEDIA_CORRELATION = "media_correlation"
    IDENTITY_CHECK = "identity_check"
    CONTACT_ADDED = "contact_added"


class Finding(NamedTuple):
    """One analytical conclusion with its supporting evidence.

    ``evidence`` cites the record ids / log line numbers the conclusion
    was derived from; ``confidence_note`` records which ambiguity rules
    applied.
    """

    category: FindingCategory
    subject: str
    summary: str
    confidence_note: str
    payload: dict
    evidence: tuple[str, ...] = ()
    at_ms: int | None = None


def sort_findings(findings) -> list[Finding]:
    return sorted(
        findings,
        key=lambda f: (f.category.value, f.subject, f.at_ms if f.at_ms is not None else -1),
    )


class LogIndex(NamedTuple):
    """The log facts the contact and block correlators share.

    ``analyze`` builds one index and hands it to them.
    """

    additions: tuple[tuple[WaJid, int], ...]  # earliest addition time per contact, by jid
    addition_refs: dict[str, list[str]]
    block_refs: dict[str, list[str]]
    unblock_refs: tuple[str, ...]
    # Block operations as (jid, at_ms), and the times of the anonymous
    # unblocks: an unblock line never says whom it covered.
    blocks: tuple[tuple[WaJid, int | None], ...]
    unblock_times: tuple[int, ...]


def log_index(bundle: CaseBundle) -> LogIndex:
    earliest: dict[str, tuple[WaJid, int]] = {}
    addition_refs: dict[str, list[str]] = {}
    block_refs: dict[str, list[str]] = {}
    unblock_refs = []
    blocks = []
    unblock_times = []
    for event in bundle.log_events:
        subject = event.subject_jid
        if event.kind in CONTACT_ADDITION_KINDS:
            if subject is None:
                continue
            addition_refs.setdefault(subject.raw, []).append(event.evidence_ref)
            at_ms = event.occurred_at
            if subject.is_parsed and at_ms is not None:
                if subject.raw not in earliest or at_ms < earliest[subject.raw][1]:
                    earliest[subject.raw] = (subject, at_ms)
        elif event.kind is EventKind.CONTACT_BLOCKED and subject is not None:
            block_refs.setdefault(subject.raw, []).append(event.evidence_ref)
            blocks.append((subject, event.occurred_at))
        elif event.kind is EventKind.CONTACT_UNBLOCKED:
            unblock_refs.append(event.evidence_ref)
            if event.occurred_at is not None:
                unblock_times.append(event.occurred_at)
    return LogIndex(
        additions=tuple(earliest[raw] for raw in sorted(earliest)),
        addition_refs=addition_refs,
        block_refs=block_refs,
        unblock_refs=tuple(unblock_refs),
        blocks=tuple(blocks),
        unblock_times=tuple(unblock_times),
    )


# --- chat history -----------------------------------------------------------

LIVE = "live"
RECOVERED = "recovered-from-backup"


class HistoryEntry(NamedTuple):
    """One row of a conversation, and where it was found."""

    record: MessageRecord
    source: str  # LIVE or RECOVERED


def backup_recovered_records(bundle: CaseBundle) -> list[MessageRecord]:
    """Backup rows absent from the live store, deduplicated across backups.

    Backups hold only rows the live store lost (see ``BackupSet``), so
    this merely drops the rows several backups share.
    """
    seen = set()
    recovered = []
    for backup in bundle.backups:
        for record in backup.messages:
            pair = (record.key_remote_jid.raw, record.key_id_raw)
            if pair in seen:
                continue
            seen.add(pair)
            recovered.append(record)
    return recovered


def backup_diff(live_pairs, backup_messages) -> list[MessageRecord]:
    """Rows present in a backup but not in the live store.

    Identity is the (conversation jid, key) pair: the key alone is shared
    by every fan-out row of a broadcast, so it cannot identify a row.
    ``live_pairs`` holds the pairs of the live store's rows.
    """
    return [
        record
        for record in backup_messages
        if (record.key_remote_jid.raw, record.key_id_raw) not in live_pairs
    ]


def reconstruct_history(
    bundle: CaseBundle, warn: list[ParseWarning] | None = None
) -> dict[str, list[HistoryEntry]]:
    """Group messages per conversation and order them chronologically.

    Ordering uses the effective time (receipt time for incoming rows,
    send time for outgoing ones) with the row id as tie-break. Rows that
    only survive in backups are merged in, tagged recovered-from-backup.
    """
    pool: list[tuple[MessageRecord, str]] = [(m, LIVE) for m in bundle.messages]
    pool.extend((m, RECOVERED) for m in backup_recovered_records(bundle))
    conversations: dict[str, list[HistoryEntry]] = {}
    for record, source in pool:
        # Group rows have been observed storing the receipt time in
        # `timestamp`; when the two fields disagree, receipt time is
        # taken from received_timestamp and the discrepancy is surfaced.
        if (
            not record.from_me
            and record.key_remote_jid.raw.endswith("@g.us")
            and ts_present(record.received_timestamp)
            and ts_present(record.timestamp)
            and record.received_timestamp != record.timestamp
        ):
            warn_to(
                warn,
                f"messages:_id={record.id}",
                "incoming group message stores different timestamp and "
                "received_timestamp; ordering uses received_timestamp",
            )
        if record.media_wa_type not in MEDIA_KINDS:
            warn_to(
                warn,
                f"messages:_id={record.id}",
                f"unknown media_wa_type {record.media_wa_type}; kept as text",
            )
        entry = HistoryEntry(record=record, source=source)
        conversations.setdefault(record.key_remote_jid.raw, []).append(entry)
    for entries in conversations.values():
        entries.sort(
            key=lambda e: (
                e.record.effective_time is None,
                e.record.effective_time or 0,
                e.record.id,
                e.source,
            )
        )
    return dict(sorted(conversations.items()))


# --- communication partners -------------------------------------------------


class BroadcastGroup(NamedTuple):
    key_raw: str
    destinations: frozenset[str]
    recipient_count: int | None
    self_record_id: int | None
    record_ids: tuple[int, ...]
    count_mismatch: bool


def _split_jid_set(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [part for part in (p.strip() for p in raw.split(",")) if part]


def resolve_partners(
    bundle: CaseBundle, warn: list[ParseWarning] | None = None
) -> tuple[BroadcastGroup, ...]:
    """The broadcasts: the sender rows of a fan-out, grouped by their shared key.

    The destinations are each row's conversation jid plus the set stored in
    remote_resource; the sender's own row has the broadcast keyword as its
    conversation. A group control row or a broadcast receipt is never a sender row.
    """
    broadcast_rows: dict[str, list[MessageRecord]] = {}
    for record in bundle.messages:
        group_control = record.is_control and record.key_remote_jid.raw.endswith("@g.us")
        if record.is_broadcast_sender_row and not (group_control or record.is_broadcast_receipt):
            broadcast_rows.setdefault(record.key_id_raw, []).append(record)

    broadcasts = []
    for key_raw in sorted(broadcast_rows):
        rows = sorted(broadcast_rows[key_raw], key=lambda r: r.id)
        destinations: set[str] = set()
        self_record_id = None
        recipient_count = None
        for row in rows:
            if row.key_remote_jid.kind is JidKind.BROADCAST:
                self_record_id = row.id
            else:
                destinations.add(row.key_remote_jid.raw)
            destinations.update(_split_jid_set(row.remote_resource_raw))
            if recipient_count is None and row.recipient_count is not None:
                recipient_count = row.recipient_count
        fanout_rows = [r for r in rows if r.key_remote_jid.kind is not JidKind.BROADCAST]
        mismatch = recipient_count is not None and len(fanout_rows) != recipient_count
        if mismatch:
            warn_to(
                warn,
                f"messages:key_id={key_raw}",
                f"broadcast stores {len(fanout_rows)} recipient rows but "
                f"recipient_count={recipient_count} (evidence may be partial)",
            )
        group = BroadcastGroup(
            key_raw=key_raw,
            destinations=frozenset(destinations),
            recipient_count=recipient_count,
            self_record_id=self_record_id,
            record_ids=tuple(r.id for r in rows),
            count_mismatch=mismatch,
        )
        broadcasts.append(group)
    return tuple(broadcasts)


def _group_creator_raw(gid_raw: str) -> str | None:
    try:
        return parse_group_id(gid_raw).creator.raw
    except MalformedGroupId:
        return None


# --- group membership timelines ----------------------------------------------


class GroupEventKind(str, Enum):
    CREATED = "created"
    JOINED = "joined"
    LEFT = "left"


_CONTROL_OPS = {1: GroupEventKind.CREATED, 4: GroupEventKind.JOINED, 5: GroupEventKind.LEFT}
_LOG_OPS = dict(zip(GROUP_MEMBERSHIP_KINDS, GroupEventKind, strict=True))
_EVENT_ORDER = {GroupEventKind.CREATED: 0, GroupEventKind.JOINED: 1, GroupEventKind.LEFT: 2}


class GroupEvent(NamedTuple):
    at_ms: int | None
    kind: GroupEventKind
    member_raw: str | None
    source: str  # "db" (control record) or "log" (backfilled)
    evidence: str


class GroupTimeline(NamedTuple):
    """Ordered membership events of one group chat."""

    group_raw: str
    group: GroupId | None
    group_name: str | None
    events: tuple[GroupEvent, ...]

    def created_at_ms(self) -> int | None:
        for event in self.events:
            if event.kind is GroupEventKind.CREATED:
                return event.at_ms
        if self.group is not None:
            return self.group.creation_time * 1000
        return None

    def replay(self, at_ms: int | None = None) -> tuple[frozenset[str], tuple[GroupEvent, ...]]:
        """Replay events up to (and including) ``at_ms``, or all of them.

        Returns the members, and the leave events of members who had no
        recorded join at the time.
        """
        members: set[str] = set()
        unjoined_leaves = []
        for event in self.events:
            if at_ms is not None and event.at_ms is not None and event.at_ms > at_ms:
                break
            if event.kind is GroupEventKind.CREATED:
                creator = self.group.creator.raw if self.group else event.member_raw
                if creator:
                    members.add(creator)
            elif event.kind is GroupEventKind.JOINED and event.member_raw:
                members.add(event.member_raw)
            elif event.kind is GroupEventKind.LEFT and event.member_raw:
                if event.member_raw not in members:
                    unjoined_leaves.append(event)
                members.discard(event.member_raw)
        return frozenset(members), tuple(unjoined_leaves)

    def membership_at(self, at_ms: int) -> frozenset[str]:
        """Members after replaying events up to (and including) ``at_ms``."""
        return self.replay(at_ms)[0]

    def final_members(self) -> list[str]:
        """Members after every event, sorted; none when the last event is undated."""
        if not self.events or self.events[-1].at_ms is None:
            return []
        return sorted(self.replay()[0])


def group_membership_timeline(
    bundle: CaseBundle, warn: list[ParseWarning] | None = None
) -> list[GroupTimeline]:
    """Rebuild each group's membership history from control records.

    Control rows encode the operation in media_size (1=create with the
    group name in data, 4=join, 5=leave; the member sits in
    remote_resource). Where control rows were deleted, matching log
    events backfill the timeline and are flagged as log-sourced.
    """
    per_group: dict[str, list[GroupEvent]] = {}
    names: dict[str, str] = {}

    db_seen: set[tuple[str, str, str | None, int | None]] = set()
    for record in bundle.messages:
        gid_raw = record.key_remote_jid.raw
        if not record.is_control or not gid_raw.endswith("@g.us"):
            continue
        op = _CONTROL_OPS.get(record.media_size or 0)
        evidence = f"messages:_id={record.id}"
        if op is None:
            warn_to(
                warn,
                evidence,
                f"control record with unknown operation code media_size={record.media_size}",
            )
            continue
        member = record.remote_resource_raw or None
        if op is GroupEventKind.CREATED:
            member = member or _group_creator_raw(gid_raw)
            if record.data:
                names.setdefault(gid_raw, record.data)
        event = GroupEvent(
            at_ms=record.timestamp,
            kind=op,
            member_raw=member,
            source="db",
            evidence=evidence,
        )
        per_group.setdefault(gid_raw, []).append(event)
        db_seen.add((gid_raw, op.value, member, record.timestamp))

    for event in bundle.log_events:
        op = _LOG_OPS.get(event.kind)
        if op is None or event.group_id is None:
            continue
        gid_raw = event.group_id.raw
        member = event.subject_jid.raw if event.subject_jid else None
        if op is GroupEventKind.CREATED:
            member = member or event.group_id.creator.raw
            if event.group_subject:
                names.setdefault(gid_raw, event.group_subject)
        if (gid_raw, op.value, member, event.occurred_at) in db_seen:
            continue  # the control record survived; the log line is corroboration
        per_group.setdefault(gid_raw, []).append(
            GroupEvent(
                at_ms=event.occurred_at,
                kind=op,
                member_raw=member,
                source="log",
                evidence=event.evidence_ref,
            )
        )

    timelines = []
    for gid_raw in sorted(per_group):
        events = sorted(
            per_group[gid_raw],
            key=lambda e: (
                e.at_ms if e.at_ms is not None else -1,
                _EVENT_ORDER[e.kind],
                e.member_raw or "",
                e.source,
            ),
        )
        gid = None
        try:
            gid = parse_group_id(gid_raw)
        except MalformedGroupId:
            warn_to(warn, f"group:{gid_raw}", "group id does not parse; creator unknown")
        timeline = GroupTimeline(
            group_raw=gid_raw, group=gid, group_name=names.get(gid_raw), events=tuple(events)
        )
        # A leave without a preceding join is kept, but flagged.
        for event in timeline.replay()[1]:
            message = f"{event.member_raw} leaves {gid_raw} without a recorded join"
            warn_to(warn, event.evidence, message)
        timelines.append(timeline)
    return timelines


# --- blocked contacts ---------------------------------------------------------

BLOCKED = "blocked"
UNBLOCKED = "unblocked"
UNKNOWN = "unknown"


def block_statuses(blocks, unblock_times) -> dict[str, tuple[str, int]]:
    """Final block status per contact from block events and anonymous unblocks.

    A contact is *blocked* when no unblock event follows its block;
    *unblocked* when an unblock fired while it was the only contact that
    could have been blocked; *unknown* otherwise, because an unblock
    line is cumulative and does not say who it covered.

    Returns ``jid_raw -> (status, at_ms)`` where the time is the event
    that established the status.
    """
    timeline: list[tuple[int, int, str | None]] = []
    for jid, at_ms in blocks:
        timeline.append((at_ms if at_ms is not None else 0, 0, jid.raw))
    for at_ms in unblock_times:
        timeline.append((at_ms, 1, None))
    timeline.sort(key=lambda item: (item[0], item[1]))

    state: dict[str, tuple[str, int]] = {}
    for at_ms, _, raw in timeline:
        if raw is not None:
            state[raw] = (BLOCKED, at_ms)
            continue
        certain = [j for j, (s, _) in state.items() if s == BLOCKED]
        possible = [j for j, (s, _) in state.items() if s == UNKNOWN]
        if len(certain) == 1 and not possible:
            state[certain[0]] = (UNBLOCKED, at_ms)
        else:
            for j in certain + possible:
                state[j] = (UNKNOWN, at_ms)
    return state


def infer_block_status(index: LogIndex) -> list[Finding]:
    """Block-status findings for every contact that was ever blocked."""
    statuses = block_statuses(index.blocks, index.unblock_times)
    notes = {
        BLOCKED: "no unblock event follows the block",
        UNBLOCKED: "an unblock fired while this was the only blocked contact",
        UNKNOWN: (
            "a cumulative unblock fired while several contacts may have been "
            "blocked; it cannot be told which ones it covered"
        ),
    }
    findings = []
    for raw in sorted(statuses):
        status, at_ms = statuses[raw]
        evidence = tuple(index.block_refs.get(raw, ()))
        if status != BLOCKED:
            evidence = evidence + index.unblock_refs
        findings.append(
            Finding(
                category=FindingCategory.BLOCK_STATUS,
                subject=raw,
                summary=f"{raw}: {status}",
                confidence_note=notes[status],
                evidence=evidence,
                payload={"jid": raw, "status": status, "at_ms": at_ms},
                at_ms=at_ms,
            )
        )
    return findings


# --- contact addition / deletion ----------------------------------------------


def contact_added_findings(index: LogIndex) -> list[Finding]:
    """One finding per contact with its earliest addition time from the logs.

    The database does not store when a contact was added; the discovery,
    profile-query, and avatar-download events written at addition time
    do.
    """
    return [
        Finding(
            category=FindingCategory.CONTACT_ADDED,
            subject=jid.raw,
            summary=f"{jid.raw} added to contacts at {at_ms} ms",
            confidence_note="the addition time is that of the contact's earliest dated "
            "discovery, profile-query or avatar-download log line",
            evidence=tuple(index.addition_refs.get(jid.raw, ())),
            payload={"jid": jid.raw, "added_at_ms": at_ms},
            at_ms=at_ms,
        )
        for jid, at_ms in index.additions
    ]


def infer_deleted_contacts(bundle: CaseBundle, index: LogIndex) -> list[Finding]:
    """Contacts evidenced by the logs but absent from the contacts table.

    The deletion time itself is unrecoverable: contact deletions log no
    identifier. Orphaned avatar files corroborate a deletion, because
    deleting a contact row does not delete the downloaded avatar; they
    need no log, so a device without logs still yields them.
    """
    current = {c.jid.raw for c in bundle.contacts}
    additions = {jid.raw: at_ms for jid, at_ms in index.additions}
    orphan_avatars: dict[str, list[str]] = {}
    for avatar in bundle.avatar_inventory:
        if avatar.jid_raw not in current:
            orphan_avatars.setdefault(avatar.jid_raw, []).append(avatar.path)

    findings = []
    for raw in sorted(set(additions) - current):
        paths = orphan_avatars.pop(raw, [])
        note = (
            "added per log evidence but missing from the contacts table; "
            "deletion time is unrecoverable"
        )
        if paths:
            note += "; an orphaned avatar file corroborates the deletion"
        findings.append(
            Finding(
                category=FindingCategory.DELETED_CONTACT,
                subject=raw,
                summary=f"{raw} was deleted from contacts",
                confidence_note=note,
                evidence=tuple(index.addition_refs.get(raw, ())) + tuple(paths),
                payload={
                    "jid": raw,
                    "added_at_ms": additions[raw],
                    "deletion_time": None,
                    "orphan_avatars": sorted(paths),
                },
                at_ms=additions[raw],
            )
        )
    # Avatars without any contact row or log trace still hint at a deletion.
    for raw in sorted(orphan_avatars):
        paths = sorted(orphan_avatars[raw])
        findings.append(
            Finding(
                category=FindingCategory.DELETED_CONTACT,
                subject=raw,
                summary=f"orphaned avatar for {raw} suggests a deleted contact",
                confidence_note="avatar file exists without a contact row; no log "
                "evidence of the addition survives",
                evidence=tuple(paths),
                payload={
                    "jid": raw,
                    "added_at_ms": None,
                    "deletion_time": None,
                    "orphan_avatars": paths,
                },
            )
        )
    return findings


# --- deleted messages ---------------------------------------------------------


def infer_deleted_messages(bundle: CaseBundle) -> list[Finding]:
    """Messages that once existed but are gone from the live store.

    Three independent sources are combined: explicit deletion log events
    (which give the deletion time), message/ack log events whose key no
    longer matches any row, and backup copies holding rows the live
    database lost. Content is unrecoverable from logs; a backup copy, if
    any, is referenced instead.

    A backup row is lost by its (conversation, key) pair: every
    ``BackupSet`` is already a delta on that pair, so each of its rows
    is a candidate, a deleted broadcast fan-out row included. A log
    line counts by its key, because a deletion line names no
    conversation.
    """
    events_by_key: dict[str, list[LogEvent]] = {}
    for event in bundle.log_events:
        key = event.message_key
        if key is not None and event.occurred_at is not None and event.kind in KEY_BEARING_KINDS:
            events_by_key.setdefault(key.raw, []).append(event)
    backups_by_key: dict[str, set[str]] = {}
    for backup in bundle.backups:
        for record in backup.messages:
            backups_by_key.setdefault(record.key_id_raw, set()).add(backup.name)
    live_keys = {m.key_id_raw for m in bundle.messages}

    findings = []
    for key in sorted((events_by_key.keys() - live_keys) | backups_by_key.keys()):
        events = events_by_key.get(key, ())
        deletes = [e for e in events if e.kind is EventKind.MESSAGE_DELETED]
        sends = [e for e in events if e.kind is EventKind.MESSAGE_SENT]
        receipts = [e for e in events if e.kind is EventKind.MESSAGE_RECEIVED]
        deleted_at = max((e.occurred_at for e in deletes), default=None)
        sent_at = min((e.occurred_at for e in sends), default=None)
        received_at = min((e.occurred_at for e in receipts), default=None)
        last = {e.kind: e.occurred_at for e in events}  # each kind's last time in log order
        server_ack = last.get(EventKind.SERVER_ACK)
        device_ack = last.get(EventKind.DEVICE_ACK)
        if device_ack is not None:
            last_state = StateCode.DELIVERED_TO_DEVICE.value
            state_ref = f"device ack at {device_ack} ms"
        elif server_ack is not None:
            last_state = StateCode.ON_SERVER.value
            state_ref = f"server ack at {server_ack} ms"
        elif sent_at is not None:
            last_state = StateCode.PENDING_LOCAL.value
            state_ref = "sent with no acknowledgement in the logs"
        elif received_at is not None:
            last_state = StateCode.RECEIVED_INCOMING.value
            state_ref = "received"
        else:
            last_state = None
            state_ref = "no exchange events survive"
        recovered = sorted(backups_by_key.get(key, ()))
        note_parts = [
            "message contents are unrecoverable from logs"
            if not recovered
            else f"a backup copy retains the full record ({', '.join(recovered)})",
            state_ref,
        ]
        exchanged = sends + receipts
        findings.append(
            Finding(
                category=FindingCategory.DELETED_MESSAGE,
                subject=key,
                summary=f"message {key} was deleted"
                if deleted_at is not None
                else f"message {key} is missing from the live store",
                confidence_note="; ".join(note_parts),
                evidence=tuple(e.evidence_ref for e in deletes + exchanged),
                payload={
                    "key": key,
                    "deleted_at_ms": deleted_at,
                    "sent_at_ms": sent_at,
                    "received_at_ms": received_at,
                    "partners": sorted({e.subject_jid.raw for e in exchanged if e.subject_jid}),
                    "last_state": last_state,
                    "server_ack_at_ms": server_ack,
                    "device_ack_at_ms": device_ack,
                    "recovered_from_backup": bool(recovered),
                    "backups": recovered,
                },
                at_ms=deleted_at if deleted_at is not None else (sent_at or received_at),
            )
        )
    return findings


# --- media correlation ----------------------------------------------------------


def server_filename(media_url: str | None) -> str | None:
    """Trailing path component of the upload URL: the server-side file name."""
    if not media_url:
        return None
    tail = media_url.rstrip("/").rsplit("/", 1)[-1]
    return tail or None


def _hash_to_hex(hash_b64: str | None) -> str | None:
    if not hash_b64:
        return None
    try:
        return media_digest(hash_b64).hex()
    except ValueError:
        return None


def _media_records(records):
    return [r for r in records if r.media_wa_type in (1, 2, 3)]


def correlate_media(
    sender_records, recipient_records, media_inventory, warn: list[ParseWarning] | None = None
) -> list[Finding]:
    """Correlate transferred files across records and the media directories.

    A sender/recipient record pair is a full-confidence match only when
    both the server-assigned file name and the content hash agree;
    agreement on just one of the two is reported at lower confidence.
    Files on disk are identified by recomputed content hash, never by
    name alone, because the receiving side stores no local file name. A
    file that cannot be read is warned about under its path and matches nothing.
    """
    findings = []
    senders = sorted(_media_records(sender_records), key=lambda r: r.id)
    recipients = sorted(_media_records(recipient_records), key=lambda r: r.id)
    recipient_names = [server_filename(r.media_url) for r in recipients]
    # Recipients are indexed by their position in id order, so each sender
    # visits its matches in that order and a recipient matching on both
    # name and hash only once.
    by_name: dict[str, list[int]] = {}
    by_hash: dict[str, list[int]] = {}
    for pos, (r_rec, r_name) in enumerate(zip(recipients, recipient_names)):
        if r_name is not None:
            by_name.setdefault(r_name, []).append(pos)
        if r_rec.media_hash is not None:
            by_hash.setdefault(r_rec.media_hash, []).append(pos)

    for s_rec in senders:
        s_name = server_filename(s_rec.media_url)
        s_hash = s_rec.media_hash
        matches = set(by_name.get(s_name, ())) | set(by_hash.get(s_hash, ()))
        for pos in sorted(matches):
            r_rec = recipients[pos]
            name_match = s_name is not None and s_name == recipient_names[pos]
            hash_match = s_hash is not None and s_hash == r_rec.media_hash
            if name_match and hash_match:
                match, note = "full", (
                    "server file name and content hash both agree; the records "
                    "describe the same transferred file"
                )
            elif name_match:
                match, note = "name-only", (
                    "server file name agrees but the content hash differs; "
                    "lower confidence, the payloads are not identical"
                )
            else:
                match, note = "hash-only", (
                    "content hash agrees but the server file name differs; "
                    "lower confidence, possibly a re-upload of the same file"
                )
            findings.append(
                Finding(
                    category=FindingCategory.MEDIA_CORRELATION,
                    subject=s_name or s_hash or "",
                    summary=f"sender record {s_rec.id} / recipient record {r_rec.id}: "
                    f"{match} match",
                    confidence_note=note,
                    evidence=(f"messages:_id={s_rec.id}", f"messages:_id={r_rec.id}"),
                    payload={
                        "match": match,
                        "sender_record_id": s_rec.id,
                        "recipient_record_id": r_rec.id,
                        "server_filename": s_name if name_match else None,
                        "media_hash": s_hash if hash_match else None,
                    },
                )
            )

    hashed_records = [
        (record, hex_digest)
        for record in sorted(recipients + senders, key=lambda r: r.id)
        if (hex_digest := _hash_to_hex(record.media_hash)) is not None
    ]
    # Files are hashed (read) only when some record has a hash to compare.
    by_hash: dict[str, list] = {}
    if hashed_records:
        for media in media_inventory:
            try:
                digest = media.sha256
            except OSError as exc:
                warn_to(warn, media.path, f"media file not read: {os_reason(exc)}")
                continue
            by_hash.setdefault(digest, []).append(media)
    for record, hex_digest in hashed_records:
        for media in by_hash.get(hex_digest, []):
            findings.append(
                Finding(
                    category=FindingCategory.MEDIA_CORRELATION,
                    subject=media.path,
                    summary=f"local file {media.path} carries the content of record "
                    f"{record.id}",
                    confidence_note="recomputed SHA-256 of the file equals the hash "
                    "stored in the record",
                    evidence=(f"messages:_id={record.id}", media.path),
                    payload={
                        "match": "local-file",
                        "record_id": record.id,
                        "path": media.path,
                        "sha256": media.sha256,
                    },
                )
            )
    return findings


# --- identity -------------------------------------------------------------------


def _digits(number: str | None) -> str:
    """The ASCII digits of ``number``: no other script's digit is a number here."""
    return "".join(ch for ch in (number or "") if "0" <= ch <= "9")


def identity_check(bundle: CaseBundle, sim_number: str | None = None) -> Finding:
    """Compare the registered number against the SIM currently in the device.

    The registration survives SIM swaps, so a mismatch means the device
    is using an account registered to a different number (possible
    impersonation).
    """
    registered = bundle.registered_number
    if registered is None:
        return Finding(
            category=FindingCategory.IDENTITY_CHECK,
            subject="",
            summary="registered number unavailable",
            confidence_note="the settings file holding the registered number is missing",
            payload={"registered_number": None, "sim_number": sim_number, "match": None},
        )
    if sim_number is None:
        return Finding(
            category=FindingCategory.IDENTITY_CHECK,
            subject=registered,
            summary=f"registered number {registered}; no SIM number supplied",
            confidence_note="supply the SIM number to check for impersonation",
            evidence=("me",),
            payload={"registered_number": registered, "sim_number": None, "match": None},
        )
    digitless = [
        name
        for name, number in (("registered number", registered), ("SIM number", sim_number))
        if not _digits(number)
    ]
    if digitless:
        return Finding(
            category=FindingCategory.IDENTITY_CHECK,
            subject=registered,
            summary=f"registered number {registered} and SIM {sim_number} not compared",
            confidence_note="no digit 0-9 in the " + " nor in the ".join(digitless),
            evidence=("me",),
            payload={"registered_number": registered, "sim_number": sim_number, "match": None},
        )
    match = _digits(registered) == _digits(sim_number)
    return Finding(
        category=FindingCategory.IDENTITY_CHECK,
        subject=registered,
        summary="registered number matches the SIM"
        if match
        else f"registered number {registered} differs from SIM {sim_number}",
        confidence_note="numbers compared digit-for-digit"
        if match
        else "the account was registered with a different SIM: possible impersonation",
        evidence=("me",),
        payload={"registered_number": registered, "sim_number": sim_number, "match": match},
    )


# --- orchestration ----------------------------------------------------------------


class Chronology(NamedTuple):
    """Per-conversation histories and group timelines of a bundle."""

    histories: dict
    timelines: list[GroupTimeline]
    warnings: list[ParseWarning]


class Analysis(NamedTuple):
    """A bundle's chronology, its broadcasts and the findings of every correlator.

    Each finding is an inference that no one artifact holds; the
    per-conversation and per-group summaries are read from the chronology,
    and a conversation's partner is its jid.
    """

    chronology: Chronology
    broadcasts: tuple[BroadcastGroup, ...]
    findings: list[Finding]


def build_chronology(bundle: CaseBundle) -> Chronology:
    """Reconstruct the conversation histories and the group membership timelines."""
    warn: list[ParseWarning] = []
    return Chronology(
        histories=reconstruct_history(bundle, warn=warn),
        timelines=group_membership_timeline(bundle, warn),
        warnings=warn,
    )


def analyze(bundle: CaseBundle, sim_number: str | None = None) -> Analysis:
    """Build the chronology and the broadcasts, then run every correlator.

    The chronology, the broadcasts and the media correlation are the only
    steps that warn about the evidence; they share one list.
    """
    chronology = build_chronology(bundle)
    broadcasts = resolve_partners(bundle, chronology.warnings)
    index = log_index(bundle)
    findings = [
        *contact_added_findings(index),
        *infer_block_status(index),
        *infer_deleted_contacts(bundle, index),
        *infer_deleted_messages(bundle),
        *correlate_media(
            [m for m in bundle.messages if m.from_me],
            [m for m in bundle.messages if not m.from_me],
            bundle.media_inventory,
            chronology.warnings,
        ),
        identity_check(bundle, sim_number),
    ]
    return Analysis(chronology=chronology, broadcasts=broadcasts, findings=sort_findings(findings))
