"""Report document assembly and serialization.

Every document the CLI writes is shaped here and serialized by
``render_report_json``. JSON is the canonical output: UTF-8 with
non-ASCII text unescaped, stable key order, every timestamp emitted
both as the raw epoch integer and as a rendered string in the requested
display offset, so the same bundle always serializes to the same bytes
(modulo the tool version field). The timeline CSV export is a
convenience view for humans.

The analysis hands over message rows; each row's direction, effective
time, delivery state (``message_state``) and typed content
(``content_json``) are derived here, once per output.
"""

from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring as _encode_str

from . import __version__
from .correlator import Analysis, Chronology, backup_diff, message_state, server_filename
from .model import (
    MEDIA_KINDS,
    BackupSet,
    CaseBundle,
    MessageRecord,
    coordinates_fault,
    render_epoch_ms,
)

_INFINITY = float("inf")


def _ts(value_ms: int | None, tz: int) -> dict | None:
    if value_ms is None or value_ms < 0:
        return None
    return {"epoch_ms": value_ms, "local": render_epoch_ms(value_ms, tz)}


def content_json(record: MessageRecord) -> dict:
    """The typed content of one message row: text, media, contact card or geo.

    A geo row without usable coordinates and a row of an unknown type are
    shown as text; ingest and ``reconstruct_history`` warn about them.
    """
    kind = MEDIA_KINDS.get(record.media_wa_type, "text")
    if kind == "geo" and coordinates_fault(record.latitude, record.longitude):
        kind = "text"
    if kind == "text":
        return {"type": kind, "text": record.data or ""}
    if kind == "contact_card":
        return {"type": kind, "display_name": record.media_name, "vcard": record.data or ""}
    if kind == "geo":
        return {
            "type": kind,
            "latitude": record.latitude,
            "longitude": record.longitude,
            "has_map_thumbnail": record.raw_data is not None,
        }
    return {
        "type": kind,
        "mime": record.media_mime_type,
        "name": record.media_name or None,
        "size": record.media_size,
        # durations only mean something for audio and video, thumbnails for images and videos
        "duration_s": record.media_duration if kind != "image" else None,
        "sha256_b64": record.media_hash,
        "server_filename": server_filename(record.media_url),
        "has_thumbnail": kind != "audio" and record.raw_data is not None,
    }


def _history_entry_json(entry, tz: int) -> dict:
    record = entry.record
    state = message_state(record)
    return {
        "record_id": record.id,
        "key": record.key_id_raw,
        "direction": record.direction,
        "effective": _ts(record.effective_time, tz),
        "state": state.label(),
        "sent": _ts(state.sent_at, tz),
        "server_ack": _ts(state.server_ack_at, tz),
        "device_ack": _ts(state.device_ack_at, tz),
        "received": _ts(state.received_at, tz),
        "content": content_json(record),
        "source": entry.source,
    }


def _finding_json(finding, tz: int) -> dict:
    return {
        "category": finding.category.value,
        "subject": finding.subject,
        "summary": finding.summary,
        "confidence_note": finding.confidence_note,
        "evidence": list(finding.evidence),
        "payload": finding.payload,
        "at": _ts(finding.at_ms, tz),
    }


def _timeline_json(timeline, tz: int) -> dict:
    return {
        "group": timeline.group_raw,
        "name": timeline.group_name,
        "creator": timeline.group.creator.raw if timeline.group else None,
        "created": _ts(timeline.created_at_ms(), tz),
        "events": [
            {
                "at": _ts(event.at_ms, tz),
                "kind": event.kind.value,
                "member": event.member_raw,
                "source": event.source,
                "evidence": event.evidence,
            }
            for event in timeline.events
        ],
        "final_members": timeline.final_members(),
    }


def timeline_document(chronology: Chronology, tz: int = 0) -> dict:
    """Group and chat chronologies: the ``timeline --format json`` document.

    The report embeds the same lists as ``group_timelines`` and
    ``conversations``.
    """
    return {
        "groups": [_timeline_json(t, tz) for t in chronology.timelines],
        "chats": [
            {"partner": jid_raw, "messages": [_history_entry_json(e, tz) for e in entries]}
            for jid_raw, entries in chronology.histories.items()
        ],
    }


def bundle_summary(bundle: CaseBundle, tz: int = 0) -> dict:
    first, last = bundle.log_coverage()
    return {
        "contacts": len(bundle.contacts),
        "messages": len(bundle.messages),
        "conversations": len(bundle.chat_list),
        "log_events": len(bundle.log_events),
        "media_files": len(bundle.media_inventory),
        "avatar_files": len(bundle.avatar_inventory),
        "backups": [b.name for b in bundle.backups],
        "registered_number": bundle.registered_number,
        "own_avatar_present": bundle.own_avatar_present,
        "log_coverage": {"first": _ts(first, tz), "last": _ts(last, tz)},
    }


def _warnings_json(warnings) -> list[dict]:
    return [{"source": w.source, "message": w.message} for w in warnings]


def ingest_document(bundle: CaseBundle) -> dict:
    """The ``ingest`` document: what the bundle holds, and the ingest warnings."""
    return {"bundle_summary": bundle_summary(bundle), "warnings": _warnings_json(bundle.warnings)}


def diff_document(
    backups: tuple[BackupSet, ...], live_pairs: frozenset[tuple[str, str]], tz: int = 0
) -> dict:
    """The ``diff`` document: per backup, the rows the live store lost.

    ``live_pairs`` holds the (conversation jid, key) pair of every live row.
    """
    documents = []
    for backup in backups:
        recovered = backup_diff(live_pairs, backup.messages)
        documents.append(
            {
                "name": backup.name,
                "recovered_count": len(recovered),
                "recovered": [
                    {
                        "record_id": r.id,
                        "conversation": r.key_remote_jid.raw,
                        "key": r.key_id_raw,
                        "direction": r.direction,
                        "timestamp": r.timestamp,
                        "timestamp_local": render_epoch_ms(r.timestamp, tz),
                        "data": r.data,
                        "media_wa_type": r.media_wa_type,
                    }
                    for r in recovered
                ],
            }
        )
    return {"backups": documents}


def forge_summary(result) -> dict:
    """The summary ``forge`` prints of a ``forge.ForgeResult``."""
    bundle = result.bundle
    return {
        "root": str(result.root),
        "contacts": len(bundle.contacts),
        "messages": len(bundle.messages),
        "log_events": len(bundle.log_events),
        "backups": [b.name for b in bundle.backups],
        "media_files": len(bundle.media_inventory),
    }


def build_report(bundle: CaseBundle, analysis: Analysis, tz: int = 0) -> dict:
    """Assemble the canonical report document from a bundle and its analysis."""
    chronologies = timeline_document(analysis, tz)
    return {
        "tool_version": __version__,
        "display_offset_minutes": tz,
        "bundle_summary": bundle_summary(bundle, tz),
        "conversations": chronologies["chats"],
        "group_timelines": chronologies["groups"],
        "broadcasts": [
            {
                "key": b.key_raw,
                "destinations": sorted(b.destinations),
                "recipient_count": b.recipient_count,
                "self_record_id": b.self_record_id,
                "record_ids": list(b.record_ids),
                "count_mismatch": b.count_mismatch,
            }
            for b in analysis.partners.broadcasts
        ],
        "findings": [_finding_json(f, tz) for f in analysis.findings],
        "warnings": _warnings_json((*bundle.warnings, *analysis.warnings)),
        "clock_caveat": "all timestamps come from the local device clock and are "
        "not comparable across devices as ground truth",
    }


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_json(value, indent: str, out: list[str], keys: dict[str, str]) -> None:
    """Append ``value``'s chunks, nested at ``indent``, to ``out``.

    The checks run in the order of CPython's ``json`` encoder, so a
    subclass (an int enum, a str enum) is written as its base type. The
    loops write leaves of exact type str, int and None themselves.
    ``keys`` caches the encoded ``"key": `` chunk of each str key; other
    keys are encoded each time, as 1, True and 1.0 are one dict key but
    encode differently.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        lead, separator = "[\n" + inner, ",\n" + inner
        for item in value:
            out.append(lead)
            lead = separator
            kind = type(item)
            if kind is str:
                out.append(_encode_str(item))
            elif kind is int:
                out.append(int.__repr__(item))
            elif item is None:
                out.append("null")
            else:
                _write_json(item, inner, out, keys)
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        lead, separator = "{\n" + inner, ",\n" + inner
        for key, item in sorted(value.items()):
            out.append(lead)
            lead = separator
            encoded = keys.get(key)
            if encoded is None:
                encoded = _encode_str(_json_key(key)) + ": "
                if type(key) is str:
                    keys[key] = encoded
            out.append(encoded)
            kind = type(item)
            if kind is str:
                out.append(_encode_str(item))
            elif kind is int:
                out.append(int.__repr__(item))
            elif item is None:
                out.append("null")
            else:
                _write_json(item, inner, out, keys)
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_report_json(report: dict) -> str:
    """The one JSON serialization of every output document.

    The bytes are those of ``json.dumps(report, indent=2, sort_keys=True,
    ensure_ascii=False) + "\\n"``, which runs CPython's pure-Python encoder
    whenever ``indent`` is set; this writer keeps that layout and
    escapes strings with the C ``encode_basestring``.
    """
    out: list[str] = []
    _write_json(report, "", out, {})
    out.append("\n")
    return "".join(out)


TIMELINE_COLUMNS = ("scope", "subject", "epoch_ms", "local_time", "event", "participant", "detail")


def timeline_rows(chronology: Chronology, tz: int = 0) -> list[tuple]:
    """Flat chronology rows (groups and chats) for the CSV export."""
    rows = []
    for timeline in chronology.timelines:
        for event in timeline.events:
            rows.append(
                (
                    "group",
                    timeline.group_raw,
                    event.at_ms if event.at_ms is not None else "",
                    render_epoch_ms(event.at_ms, tz) or "",
                    event.kind.value,
                    event.member_raw or "",
                    f"source={event.source}",
                )
            )
    for jid_raw, entries in chronology.histories.items():
        for entry in entries:
            record = entry.record
            content = content_json(record)
            detail = content["type"]
            if detail == "text" and content["text"]:
                detail += ":" + content["text"][:40]
            at_ms = record.effective_time
            rows.append(
                (
                    "chat",
                    jid_raw,
                    at_ms if at_ms is not None else "",
                    render_epoch_ms(at_ms, tz) or "",
                    f"message-{record.direction}",
                    record.key_id_raw,
                    detail,
                )
            )
    rows.sort(key=lambda r: (r[2] == "", r[2] if r[2] != "" else 0, r[0], r[1], r[4], r[5]))
    return rows


def render_timeline_csv(chronology: Chronology, tz: int = 0) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TIMELINE_COLUMNS)
    writer.writerows(timeline_rows(chronology, tz))
    return buffer.getvalue()
