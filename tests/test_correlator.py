"""Correlation procedures: state machine, contents, partners, timelines,
deletions, media linkage, identity."""

import base64
import dataclasses
import hashlib
import shutil

import pytest

import helpers
from helpers import jid
from wadroid import correlator, forge, ingest, layout, model
from wadroid.correlator import (
    BLOCKED,
    Finding,
    FindingCategory,
    GroupEventKind,
    StateCode,
    UNBLOCKED,
    UNKNOWN,
    analyze,
    backup_diff,
    block_statuses,
    build_chronology,
    correlate_media,
    group_membership_timeline,
    identity_check,
    infer_block_status,
    infer_deleted_contacts,
    infer_deleted_messages,
    log_index,
    message_state,
    reconstruct_history,
    resolve_partners,
    server_filename,
)
from wadroid.log_parser import format_body, format_line, parse_log_lines
from wadroid.model import (
    AvatarFile,
    CaseBundle,
    EventKind,
    MediaFile,
    MessageRecord,
    classify_jid,
)
from wadroid.report import build_report, content_json

REMOTE = jid("393480000002")


def make_record(**overrides) -> MessageRecord:
    base = dict(
        id=1,
        key_remote_jid=classify_jid(REMOTE),
        key_id_raw="1363253484-1",
        from_me=False,
        status_code=0,
        timestamp=1000,
        received_timestamp=1000,
        receipt_server_timestamp=-1,
        receipt_device_timestamp=-1,
        needs_push=0,
        recipient_count=None,
        remote_resource_raw=None,
        media_wa_type=0,
        data="hi",
        raw_data=None,
        media_hash=None,
        media_url=None,
        media_mime_type=None,
        media_size=None,
        media_name=None,
        media_duration=None,
        latitude=None,
        longitude=None,
    )
    base.update(overrides)
    if "key_remote_jid" in overrides and isinstance(overrides["key_remote_jid"], str):
        base["key_remote_jid"] = classify_jid(overrides["key_remote_jid"])
    return MessageRecord(**base)


# --- message state ------------------------------------------------------------


@pytest.mark.parametrize(
    "from_me,status,code",
    [
        (True, 0, StateCode.PENDING_LOCAL),
        (True, 4, StateCode.ON_SERVER),
        (True, 5, StateCode.DELIVERED_TO_DEVICE),
        (True, 6, StateCode.CONTROL),
        (False, 6, StateCode.CONTROL),
        (False, 0, StateCode.RECEIVED_INCOMING),
    ],
)
def test_state_codebook(from_me, status, code):
    record = make_record(from_me=from_me, status_code=status)
    assert message_state(record).code is code


def test_unknown_status_preserved():
    state = message_state(make_record(from_me=True, status_code=7))
    assert state.code is StateCode.UNKNOWN
    assert state.label() == "UnknownStatus(7)"


def test_delivered_state_change_times():
    record = make_record(
        from_me=True,
        status_code=5,
        timestamp=helpers.STATE_SENT,
        received_timestamp=-1,
        receipt_server_timestamp=helpers.STATE_SERVER,
        receipt_device_timestamp=helpers.STATE_DEVICE,
    )
    state = message_state(record)
    assert state.sent_at == 1381932937884
    assert state.server_ack_at == 1381933025551
    assert state.device_ack_at == 1381933319135


def test_pending_state_has_no_acks():
    record = make_record(
        from_me=True,
        status_code=0,
        timestamp=2000,
        received_timestamp=2001,  # insertion time while pending
        receipt_server_timestamp=-1,
        receipt_device_timestamp=-1,
    )
    state = message_state(record)
    assert state.code is StateCode.PENDING_LOCAL
    assert state.server_ack_at is None and state.device_ack_at is None


# --- message content ---------------------------------------------------------------

_HASH = base64.b64encode(bytes(32)).decode()
_UNKNOWN_TYPE = "unknown media_wa_type 9; kept as text"


@pytest.mark.parametrize(
    "overrides, content, warnings",
    [
        (dict(media_wa_type=0, data="hi"), {"type": "text", "text": "hi"}, []),
        (dict(media_wa_type=0, data=None), {"type": "text", "text": ""}, []),
        (
            dict(
                from_me=True,
                media_wa_type=1,
                data=None,
                media_mime_type="image/jpeg",
                media_name="IMG-20131021-WA0000.jpg",
                media_size=40267,
                media_duration=7,  # images report no duration
                media_hash=_HASH,
                media_url="https://mms402.whatsapp.net/d/f1a2b3.jpg",
                raw_data=b"thumb",
            ),
            {
                "type": "image",
                "mime": "image/jpeg",
                "name": "IMG-20131021-WA0000.jpg",
                "size": 40267,
                "duration_s": None,
                "sha256_b64": _HASH,
                "server_filename": "f1a2b3.jpg",
                "has_thumbnail": True,
            },
            [],
        ),
        (
            dict(
                media_wa_type=2,
                media_mime_type="audio/ogg",
                media_name="",
                media_size=900,
                media_duration=12,
                media_url="https://mms402.whatsapp.net/d/a1.ogg/",
                raw_data=b"x",  # audio reports no thumbnail
            ),
            {
                "type": "audio",
                "mime": "audio/ogg",
                "name": None,
                "size": 900,
                "duration_s": 12,
                "sha256_b64": None,
                "server_filename": "a1.ogg",
                "has_thumbnail": False,
            },
            [],
        ),
        (
            dict(
                media_wa_type=3,
                media_mime_type="video/mp4",
                media_duration=30,
                media_size=5,
                media_hash=_HASH,
                media_url="https://mms402.whatsapp.net/d/v1.mp4",
                raw_data=b"t",
            ),
            {
                "type": "video",
                "mime": "video/mp4",
                "name": None,
                "size": 5,
                "duration_s": 30,
                "sha256_b64": _HASH,
                "server_filename": "v1.mp4",
                "has_thumbnail": True,
            },
            [],
        ),
        (
            dict(media_wa_type=3, media_url=""),
            {
                "type": "video",
                "mime": None,
                "name": None,
                "size": None,
                "duration_s": None,
                "sha256_b64": None,
                "server_filename": None,
                "has_thumbnail": False,
            },
            [],
        ),
        (
            dict(media_wa_type=4, data="BEGIN:VCARD\nEND:VCARD", media_name="Bob"),
            {"type": "contact_card", "display_name": "Bob", "vcard": "BEGIN:VCARD\nEND:VCARD"},
            [],
        ),
        (
            dict(media_wa_type=5, data=None, latitude=45.07, longitude=7.68, raw_data=b"map"),
            {"type": "geo", "latitude": 45.07, "longitude": 7.68, "has_map_thumbnail": True},
            [],
        ),
        (
            dict(media_wa_type=5, latitude=-90.0, longitude=180.0),
            {"type": "geo", "latitude": -90.0, "longitude": 180.0, "has_map_thumbnail": False},
            [],
        ),
        # Ingest warns about a geo row without usable coordinates, under its
        # file's name; the history does not warn again.
        (
            dict(media_wa_type=5, latitude=None, longitude=None, data="x"),
            {"type": "text", "text": "x"},
            [],
        ),
        (
            dict(media_wa_type=5, latitude=91.0, longitude=7.68, data="y"),
            {"type": "text", "text": "y"},
            [],
        ),
        (dict(media_wa_type=9, data="z"), {"type": "text", "text": "z"}, [_UNKNOWN_TYPE]),
    ],
    ids=[
        "text",
        "text-without-data",
        "image",
        "audio",
        "video",
        "video-without-thumbnail",
        "contact-card",
        "geo",
        "geo-without-map",
        "geo-without-coordinates",
        "geo-out-of-range",
        "unknown-type",
    ],
)
def test_content_json(overrides, content, warnings):
    record = make_record(**overrides)
    assert content_json(record) == content
    warn = []
    reconstruct_history(CaseBundle(messages=(record,)), warn=warn)
    assert [(w.source, w.message) for w in warn] == [("messages:_id=1", m) for m in warnings]


# --- chat history -----------------------------------------------------------------


def test_history_conversation_replay(tmp_path):
    result = forge.generate_bundle(helpers.conversation_script(), tmp_path)
    bundle = ingest.load_case_bundle(result.root)
    histories = reconstruct_history(bundle)
    entries = histories[jid(helpers.PARTNER)]
    records = [e.record for e in entries]
    texts = [content_json(r)["text"] for r in records]
    assert texts == ["Message 1", "Reply 1", "Message 2", "Reply 2"]
    assert [r.direction for r in records] == ["incoming", "outgoing", "incoming", "outgoing"]
    assert records[0].effective_time == helpers.CONV_IN_1  # 06:59:09Z receipt
    assert records[1].effective_time == helpers.CONV_OUT_1  # 07:00:23Z send
    assert message_state(records[0]).code is StateCode.RECEIVED_INCOMING


def test_history_empty_bundle():
    assert reconstruct_history(CaseBundle()) == {}


def test_history_randomized_order(tmp_path):
    result = forge.generate_bundle(forge.random_script(seed=77, max_actions=60), tmp_path)
    bundle = ingest.load_case_bundle(result.root)
    observed = helpers.observed_analytics(bundle)["histories"]
    assert observed == result.expected.histories


def test_incoming_group_timestamp_discrepancy_warns():
    gid = "393200000006-1384187045@g.us"
    record = make_record(
        key_remote_jid=gid,
        from_me=False,
        status_code=0,
        timestamp=5000,
        received_timestamp=6000,
        remote_resource_raw=jid("393350000004"),
    )
    warn = []
    histories = reconstruct_history(CaseBundle(messages=(record,)), warn=warn)
    assert histories[gid][0].record.effective_time == 6000  # receipt time wins
    assert any("received_timestamp" in w.message for w in warn)


# --- partner resolution --------------------------------------------------------------


def test_broadcast_sender_rows(tmp_path):
    result = forge.generate_bundle(helpers.broadcast_script(), tmp_path)
    bundle = ingest.load_case_bundle(result.root)
    broadcasts = resolve_partners(bundle)
    assert len(broadcasts) == 1
    bc = broadcasts[0]
    assert bc.destinations == frozenset(
        {jid(helpers.BC_R1), jid(helpers.BC_R2), jid(helpers.BC_R3)}
    )
    assert bc.recipient_count == 3
    assert bc.self_record_id is not None
    assert not bc.count_mismatch
    assert all(m.needs_push == 2 for m in bundle.messages)
    # the self record uses the broadcast keyword as its conversation
    self_rows = [m for m in bundle.messages if m.id == bc.self_record_id]
    assert self_rows[0].key_remote_jid.raw == "broadcast"


def test_broadcast_count_mismatch_warns():
    rows = [
        make_record(
            id=1,
            key_remote_jid=REMOTE,
            from_me=True,
            status_code=4,
            needs_push=2,
            recipient_count=3,
            remote_resource_raw=f"{REMOTE},{jid('393350000004')}",
        )
    ]
    warn = []
    broadcasts = resolve_partners(CaseBundle(messages=tuple(rows)), warn)
    assert broadcasts[0].count_mismatch
    assert len(warn) == 1


def test_group_control_and_receipt_rows_are_never_broadcast_sender_rows():
    gid = "393200000006-1384187045@g.us"
    control = make_record(
        id=1, key_remote_jid=gid, from_me=True, status_code=6, needs_push=2
    )
    receipt = make_record(id=2, key_id_raw="%~123-1", from_me=False, needs_push=2)
    assert resolve_partners(CaseBundle(messages=(control, receipt))) == ()


# --- group timelines --------------------------------------------------------------


def _group_bundle(tmp_path):
    result = forge.generate_bundle(helpers.group_script(), tmp_path)
    return result, ingest.load_case_bundle(result.root)


def test_group_timeline_reference_scenario(tmp_path):
    result, bundle = _group_bundle(tmp_path)
    timelines = group_membership_timeline(bundle)
    assert len(timelines) == 1
    timeline = timelines[0]
    assert timeline.group_name == "wa test group"
    assert timeline.group.creator.raw == jid(helpers.USER_D)
    kinds = [(e.at_ms, e.kind, e.member_raw) for e in timeline.events]
    assert kinds == [
        (helpers.GRP_CREATE, GroupEventKind.CREATED, jid(helpers.USER_D)),
        (helpers.GRP_ADD_E, GroupEventKind.JOINED, jid(helpers.USER_E)),
        (helpers.GRP_ADD_F, GroupEventKind.JOINED, jid(helpers.USER_F)),
        (helpers.GRP_LEAVE_F, GroupEventKind.LEFT, jid(helpers.USER_F)),
        (helpers.GRP_LEAVE_E, GroupEventKind.LEFT, jid(helpers.USER_E)),
    ]
    assert all(e.source == "db" for e in timeline.events)
    # membership mid-scenario: everyone is in
    nov13 = 1384344000000
    assert timeline.membership_at(nov13) == frozenset(
        {jid(helpers.USER_D), jid(helpers.USER_E), jid(helpers.USER_F)}
    )
    # after both leaves only the creator remains
    assert timeline.membership_at(helpers.GRP_LEAVE_E) == frozenset({jid(helpers.USER_D)})


def test_membership_piecewise_constant(tmp_path):
    _, bundle = _group_bundle(tmp_path)
    timeline = group_membership_timeline(bundle)[0]
    event_times = [e.at_ms for e in timeline.events]
    for t1, t2 in zip(event_times, event_times[1:]):
        if t2 - t1 < 2:
            continue
        probes = {timeline.membership_at(t) for t in (t1, t1 + 1, t2 - 1)}
        assert len(probes) == 1  # constant between events


def test_creation_only_timeline():
    script = forge.ScenarioScript(
        owner=helpers.USER_D,
        actors=(helpers.USER_D,),
        actions=(forge.CreateGroup(at_ms=helpers.GRP_CREATE, name="solo", label="g"),),
    )
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = forge.generate_bundle(script, tmp)
        bundle = ingest.load_case_bundle(result.root)
    timeline = group_membership_timeline(bundle)[0]
    assert len(timeline.events) == 1
    assert timeline.membership_at(helpers.GRP_CREATE) == frozenset({jid(helpers.USER_D)})


def test_deleted_control_rows_backfilled_from_log(tmp_path):
    script = helpers.group_script()
    # wipe the two join control rows; the log still has the events.
    # A probe run without deletions reveals the generated keys.
    probe = forge.generate_bundle(script, tmp_path / "probe")
    control = [m for m in probe.bundle.messages if m.status_code == 6]
    join_keys = [m.key_id_raw for m in control if m.media_size == 4]
    actions = script.actions + tuple(
        forge.DeleteMessage(at_ms=helpers.GRP_LEAVE_E + 10_000 + i * 1000, target=key)
        for i, key in enumerate(join_keys)
    )
    script2 = forge.ScenarioScript(
        owner=script.owner, actors=script.actors, actions=actions
    )
    result = forge.generate_bundle(script2, tmp_path / "real")
    bundle = ingest.load_case_bundle(result.root)
    timeline = group_membership_timeline(bundle)[0]
    assert [(e.kind, e.source) for e in timeline.events] == [
        (GroupEventKind.CREATED, "db"),
        (GroupEventKind.JOINED, "log"),
        (GroupEventKind.JOINED, "log"),
        (GroupEventKind.LEFT, "db"),
        (GroupEventKind.LEFT, "db"),
    ]
    observed = helpers.observed_analytics(bundle)["group_timelines"]
    assert observed == result.expected.group_timelines


def test_orphan_leave_warns():
    gid = "393200000006-1384187045@g.us"
    record = make_record(
        key_remote_jid=gid,
        from_me=False,
        status_code=6,
        media_size=5,
        remote_resource_raw=jid("393350000004"),
        data=None,
    )
    warn = []
    timelines = group_membership_timeline(CaseBundle(messages=(record,)), warn)
    assert len(timelines[0].events) == 1  # kept
    assert any("without a recorded join" in w.message for w in warn)


# --- blocked contacts ---------------------------------------------------------------


def test_block_no_unblock_reports_blocked():
    statuses = block_statuses([(classify_jid(jid("393200000003")), 1000)], [])
    assert statuses[jid("393200000003")] == (BLOCKED, 1000)


def test_single_blocked_then_unblock_reports_unblocked():
    statuses = block_statuses([(classify_jid(REMOTE), 1000)], [2000])
    assert statuses[REMOTE] == (UNBLOCKED, 2000)


def test_two_blocked_one_unblock_reports_unknown():
    statuses = block_statuses(
        [(classify_jid(REMOTE), 1000), (classify_jid(jid("393200000003")), 1500)], [2000]
    )
    assert statuses[REMOTE] == (UNKNOWN, 2000)
    assert statuses[jid("393200000003")] == (UNKNOWN, 2000)


def test_reblock_after_ambiguity_is_certain():
    a, b = classify_jid(REMOTE), classify_jid(jid("393200000003"))
    statuses = block_statuses([(a, 1000), (b, 1500), (a, 3000)], [2000])
    assert statuses[REMOTE] == (BLOCKED, 3000)
    assert statuses[jid("393200000003")] == (UNKNOWN, 2000)


def test_block_findings_cite_log_lines(tmp_path):
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.BlockContact(at_ms=1385000000000, number=helpers.PARTNER),
            forge.UnblockAll(at_ms=1385000100000),
        ),
    )
    result = forge.generate_bundle(script, tmp_path)
    bundle = ingest.load_case_bundle(result.root)
    findings = infer_block_status(log_index(bundle))
    assert len(findings) == 1
    assert findings[0].payload["status"] == UNBLOCKED
    assert findings[0].evidence  # log line citations present


def _log_bundle(lines, **kwargs):
    events = parse_log_lines(lines, "whatsapp.log")
    return CaseBundle(log_events=tuple(events), **kwargs)


def test_log_index_block_facts():
    target = "39331xxxxxxx@s.whatsapp.net"
    lines = [
        format_line(1000, format_body(EventKind.CONTACT_BLOCKED, jid=target)),
        format_line(2000, format_body(EventKind.CONTACT_UNBLOCKED)),
        format_line(
            3000, format_body(EventKind.CONTACT_BLOCKED, jid="39320xxxxxxx@s.whatsapp.net")
        ),
    ]
    index = log_index(_log_bundle(lines))
    assert [(j.raw, t) for j, t in index.blocks] == [
        (target, 1000),
        ("39320xxxxxxx@s.whatsapp.net", 3000),
    ]
    assert index.unblock_times == (2000,)


def test_undated_block_events():
    target = "39331xxxxxxx@s.whatsapp.net"
    lines = [
        format_line(1000, format_body(EventKind.CONTACT_BLOCKED, jid=target)),
        format_line(2000, format_body(EventKind.CONTACT_UNBLOCKED)),
    ]
    blocked, unblocked = (
        e._replace(occurred_at=None) for e in parse_log_lines(lines, "whatsapp.log")
    )
    bundle = CaseBundle(log_events=(blocked, unblocked))
    index = log_index(bundle)
    assert [(j.raw, t) for j, t in index.blocks] == [(target, None)]
    assert index.unblock_times == ()  # an undated unblock gives no time...
    assert index.unblock_refs == (unblocked.evidence_ref,)  # ...but keeps its evidence
    (finding,) = infer_block_status(index)
    assert finding.payload == {"jid": target, "status": BLOCKED, "at_ms": 0}
    assert finding.evidence == (blocked.evidence_ref,)


# --- contact addition and deletion ---------------------------------------------------


ADD_TIME = 1380118464000  # 2013-09-25 14:14:24Z


def _addition_lines(jid_raw, t0=ADD_TIME):
    return [
        format_line(t0, format_body(EventKind.CONTACT_NOT_IN_DB, jid=jid_raw)),
        format_line(t0 + 400, format_body(EventKind.CONTACT_QUERY, jid=jid_raw, query="profile")),
        format_line(t0 + 800, format_body(EventKind.CONTACT_QUERY, jid=jid_raw, query="status")),
        format_line(t0 + 1200, format_body(EventKind.CONTACT_QUERY, jid=jid_raw, query="avatar")),
        format_line(t0 + 2000, format_body(EventKind.AVATAR_DOWNLOADED, jid=jid_raw)),
    ]


def test_contact_addition_time_from_log_sequence():
    target = "39331xxxxxxx@s.whatsapp.net"
    bundle = _log_bundle(_addition_lines(target))
    additions = log_index(bundle).additions
    assert [(j.raw, t) for j, t in additions] == [(target, ADD_TIME)]


def test_contact_addition_interleaved():
    a, b = jid("393310000001"), jid("393310000002")
    lines = [
        format_line(1000, format_body(EventKind.CONTACT_NOT_IN_DB, jid=a)),
        format_line(1500, format_body(EventKind.CONTACT_NOT_IN_DB, jid=b)),
        format_line(2000, format_body(EventKind.AVATAR_DOWNLOADED, jid=a)),
        format_line(2500, format_body(EventKind.AVATAR_DOWNLOADED, jid=b)),
    ]
    additions = log_index(_log_bundle(lines)).additions
    assert {j.raw: t for j, t in additions} == {a: 1000, b: 1500}


def test_deleted_contact_inference():
    target = "39331xxxxxxx@s.whatsapp.net"
    bundle = _log_bundle(_addition_lines(target))  # no contact rows at all
    findings = infer_deleted_contacts(bundle, log_index(bundle))
    assert len(findings) == 1
    assert findings[0].payload["jid"] == target
    assert findings[0].payload["added_at_ms"] == ADD_TIME
    assert findings[0].payload["deletion_time"] is None
    assert "unrecoverable" in findings[0].confidence_note


def test_contact_present_yields_no_deletion_finding(tmp_path):
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(forge.AddContact(at_ms=ADD_TIME, number=helpers.PARTNER),),
    )
    result = forge.generate_bundle(script, tmp_path)
    bundle = ingest.load_case_bundle(result.root)
    assert infer_deleted_contacts(bundle, log_index(bundle)) == []


def test_orphan_avatar_corroborates():
    target = jid("393310000009")
    bundle = _log_bundle(
        _addition_lines(target),
        avatar_inventory=(
            AvatarFile(jid_raw=target, path=f"mnt/sdcard/WhatsApp/ProfilePictures/{target}.j"),
        ),
    )
    findings = infer_deleted_contacts(bundle, log_index(bundle))
    assert findings[0].payload["orphan_avatars"]
    assert "avatar" in findings[0].confidence_note


def test_orphan_avatar_without_log_trace():
    target = jid("393310000009")
    bundle = CaseBundle(
        log_events=tuple(parse_log_lines([format_line(1, "noise")], "whatsapp.log")),
        avatar_inventory=(AvatarFile(jid_raw=target, path=f"x/{target}.j"),),
    )
    findings = infer_deleted_contacts(bundle, log_index(bundle))
    assert len(findings) == 1
    assert findings[0].payload["added_at_ms"] is None


def test_no_log_coverage_finding():
    # Without logs no placeholder finding stands in; orphaned avatars need no log.
    assert infer_deleted_contacts(CaseBundle(), log_index(CaseBundle())) == []
    target = jid("393310000009")
    bundle = CaseBundle(avatar_inventory=(AvatarFile(jid_raw=target, path=f"x/{target}.j"),))
    (finding,) = infer_deleted_contacts(bundle, log_index(bundle))
    assert finding.subject == target
    assert finding.payload["orphan_avatars"] == [f"x/{target}.j"]


def test_devices_without_logs_keep_orphan_avatar_findings(tmp_path):
    qualifying = []
    for seed in range(30):
        result = forge.generate_bundle(forge.random_script(seed), tmp_path / str(seed))
        shutil.rmtree(result.root / layout.LOGS_DIR)
        findings = analyze(ingest.load_case_bundle(result.root)).findings
        avatars = {a.jid_raw for a in result.bundle.avatar_inventory}
        orphaned = {raw for raw, _ in result.expected.deleted_contacts if raw in avatars}
        deleted = {f.subject for f in findings if f.category is FindingCategory.DELETED_CONTACT}
        assert orphaned <= deleted, seed
        assert "" not in {f.subject for f in findings}, seed
        if orphaned:
            qualifying.append(seed)
    assert qualifying == [4, 6, 7, 15, 16, 23, 26]


# --- deleted messages ------------------------------------------------------------------


def test_deleted_message_reference_case():
    key = "1363253484-1"
    partner = "39366xxxxxxx@s.whatsapp.net"
    lines = [
        format_line(1363253864000, format_body(EventKind.MESSAGE_SENT, key=key, jid=partner)),
        format_line(1363253866000, format_body(EventKind.SERVER_ACK, key=key)),
        format_line(1363253870000, format_body(EventKind.DEVICE_ACK, key=key)),
        format_line(1363258162000, format_body(EventKind.MESSAGE_DELETED, key=key)),
    ]
    bundle = _log_bundle(lines)
    findings = infer_deleted_messages(bundle)
    assert len(findings) == 1
    payload = findings[0].payload
    assert payload["key"] == key
    assert payload["sent_at_ms"] == 1363253864000  # 09:37:44Z
    assert payload["deleted_at_ms"] == 1363258162000  # 10:49:22Z
    assert payload["partners"] == [partner]
    assert payload["last_state"] == "delivered"
    assert not payload["recovered_from_backup"]


def test_no_deletions_no_findings(tmp_path):
    result = forge.generate_bundle(helpers.conversation_script(), tmp_path)
    bundle = ingest.load_case_bundle(result.root)
    assert infer_deleted_messages(bundle) == []


def test_delete_three_of_ten(tmp_path):
    base = 1380000000000
    actions = []
    labels = []
    for i in range(10):
        label = f"m{i}"
        labels.append(label)
        actions.append(
            forge.SendText(
                at_ms=base + i * 60_000,
                sender=helpers.OWNER,
                to=helpers.PARTNER,
                text=f"note {i}",
                label=label,
            )
        )
    doomed = [labels[1], labels[4], labels[8]]
    for i, label in enumerate(doomed):
        actions.append(
            forge.DeleteMessage(at_ms=base + 3_600_000 + i * 1000, target=label)
        )
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=tuple(actions),
    )
    result = forge.generate_bundle(script, tmp_path)
    bundle = ingest.load_case_bundle(result.root)
    findings = infer_deleted_messages(bundle)
    assert len(findings) == 3
    observed = helpers.observed_analytics(bundle)["deleted_messages"]
    assert observed == result.expected.deleted_messages


def test_backup_recovers_deleted_content(tmp_path):
    base = 1380000000000
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.SendText(
                at_ms=base, sender=helpers.PARTNER, to=helpers.OWNER, text="doomed", label="m"
            ),
            forge.SnapshotBackup(at_ms=base + 60_000),
            forge.DeleteMessage(at_ms=base + 120_000, target="m"),
        ),
    )
    result = forge.generate_bundle(script, tmp_path)
    bundle = ingest.load_case_bundle(result.root)
    findings = infer_deleted_messages(bundle)
    assert len(findings) == 1
    assert findings[0].payload["recovered_from_backup"] is True
    histories = reconstruct_history(bundle)
    entries = histories[jid(helpers.PARTNER)]
    assert [e.source for e in entries] == ["recovered-from-backup"]
    assert content_json(entries[0].record) == {"type": "text", "text": "doomed"}


def test_backups_hold_only_rows_the_live_store_lost(tmp_path):
    base = 1380000000000
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.SendText(at_ms=base, sender=helpers.PARTNER, to=helpers.OWNER, text="kept"),
            forge.SendText(
                at_ms=base + 1_000,
                sender=helpers.OWNER,
                to=helpers.PARTNER,
                text="doomed",
                label="m",
            ),
            forge.SnapshotBackup(at_ms=base + 60_000),
            forge.SnapshotBackup(at_ms=base + 90_000),
            forge.DeleteMessage(at_ms=base + 120_000, target="m"),
        ),
    )
    result = forge.generate_bundle(script, tmp_path)
    bundle = ingest.load_case_bundle(result.root)
    assert bundle.backups == result.bundle.backups
    assert len(bundle.backups) == 2
    for backup in bundle.backups:
        assert [m.data for m in backup.messages] == ["doomed"]
    findings = infer_deleted_messages(bundle)
    assert len(findings) == 1
    assert findings[0].payload["backups"] == sorted(b.name for b in bundle.backups)


def test_chronology_is_the_start_of_the_analysis(tmp_path):
    script = helpers.group_script()
    script = dataclasses.replace(
        script,
        actions=(
            *script.actions,
            forge.SendText(
                at_ms=helpers.GRP_LEAVE_E + 60_000,
                sender=helpers.USER_E,
                to=helpers.USER_D,
                text="after the group",
            ),
            forge.Broadcast(
                at_ms=helpers.GRP_LEAVE_E + 120_000,
                sender=helpers.USER_D,
                recipients=(helpers.USER_E, helpers.USER_F),
                text="to both",
            ),
        ),
    )
    result = forge.generate_bundle(script, tmp_path / "evidence")
    (gid,) = result.expected.group_timelines
    stranger = jid("393209999999")
    with (result.root / layout.MAIN_LOG).open("a", encoding="utf-8") as log:
        leave = format_body(EventKind.GROUP_MEMBER_LEFT, gid=gid, jid=stranger)
        log.write(format_line(helpers.GRP_LEAVE_E + 1000, leave))
        log.write("\n")
    bundle = ingest.load_case_bundle(result.root)
    chronology, analysis = build_chronology(bundle), analyze(bundle)
    assert chronology.histories and chronology.timelines and analysis.broadcasts
    assert [w.message for w in chronology.warnings] == [
        f"{stranger} leaves {gid} without a recorded join"
    ]
    assert analysis.chronology == chronology
    assert analysis.broadcasts == resolve_partners(bundle)


def test_analyze_scans_log_coverage_once(monkeypatch):
    a, b, c = jid("393310000001"), jid("393310000002"), jid("393310000003")
    lines = [
        *_addition_lines(a, 1000),
        *_addition_lines(b, 5000),
        format_line(9000, format_body(EventKind.CONTACT_BLOCKED, jid=a)),
        format_line(9500, format_body(EventKind.CONTACT_BLOCKED, jid=c)),
        format_line(9800, format_body(EventKind.CONTACT_UNBLOCKED)),
        format_line(10000, format_body(EventKind.MESSAGE_SENT, key="1-1", jid=a)),
        format_line(10500, format_body(EventKind.MESSAGE_SENT, key="1-2", jid=b)),
        format_line(11000, format_body(EventKind.MESSAGE_DELETED, key="1-1")),
        format_line(11500, format_body(EventKind.MESSAGE_DELETED, key="1-2")),
    ]
    bundle = _log_bundle(lines)
    scans = []
    log_coverage = CaseBundle.log_coverage

    def counted(self):
        scans.append(self)
        return log_coverage(self)

    monkeypatch.setattr(CaseBundle, "log_coverage", counted)
    analysis = analyze(bundle)
    counts = {}
    for finding in analysis.findings:
        counts[finding.category] = counts.get(finding.category, 0) + 1
    assert counts[FindingCategory.CONTACT_ADDED] == 2
    assert counts[FindingCategory.DELETED_CONTACT] == 2
    assert counts[FindingCategory.BLOCK_STATUS] == 2
    assert counts[FindingCategory.DELETED_MESSAGE] == 2
    assert len(scans) == 0  # the findings do not restate the window...
    doc = build_report(bundle, analysis)
    assert len(scans) == 1  # ...the report states it once
    coverage = doc["bundle_summary"]["log_coverage"]
    assert (coverage["first"]["epoch_ms"], coverage["last"]["epoch_ms"]) == (1000, 11500)
    assert "bundle_summary.log_coverage" in doc["log_caveat"]
    assert not any("coverage" in f.confidence_note for f in analysis.findings)


_INFERENCES = {
    "contact_added",
    "block_status",
    "deleted_contact",
    "deleted_message",
    "media_correlation",
    "identity_check",
}


def test_report_findings_are_inferences(tmp_path):
    # Per-conversation and per-group summaries are the report's conversations
    # and group_timelines; no finding restates them.
    for seed in (3, 8, 21):
        result = forge.generate_bundle(forge.random_script(seed, 200), tmp_path / str(seed))
        bundle = ingest.load_case_bundle(result.root)
        doc = build_report(bundle, analyze(bundle))
        assert doc["conversations"] and doc["group_timelines"]
        assert {f["category"] for f in doc["findings"]} <= _INFERENCES


# --- backup diff -------------------------------------------------------------------------


def _pairs(records):
    return frozenset((r.key_remote_jid.raw, r.key_id_raw) for r in records)


def test_backup_diff_superset():
    live = [make_record(id=1, key_id_raw="1-1"), make_record(id=2, key_id_raw="1-2")]
    backup = live + [make_record(id=3, key_id_raw="1-3"), make_record(id=4, key_id_raw="1-4")]
    recovered = backup_diff(_pairs(live), backup)
    assert [r.key_id_raw for r in recovered] == ["1-3", "1-4"]


def test_backup_diff_identical():
    live = [make_record(id=1, key_id_raw="1-1")]
    assert backup_diff(_pairs(live), list(live)) == []


def test_backup_diff_disjoint():
    live = [make_record(id=1, key_id_raw="1-1")]
    backup = [make_record(id=9, key_id_raw="9-9", key_remote_jid=jid("393111111111"))]
    assert backup_diff(_pairs(live), backup) == backup


# --- media correlation -------------------------------------------------------------------


def _media_pair(tmp_path, perturb=False):
    content = b"JPEGDATA" * 40
    server_name = "a1b2c3d4e5f6.jpg"
    sender_script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.SendMedia(
                at_ms=1382349000000,
                sender=helpers.OWNER,
                to=helpers.PARTNER,
                media_kind="image",
                content=content,
                server_filename=server_name,
            ),
        ),
    )
    received = bytearray(content)
    if perturb:
        received[10] ^= 0xFF
    recipient_script = forge.ScenarioScript(
        owner=helpers.PARTNER,
        actors=(helpers.PARTNER, helpers.OWNER),
        actions=(
            forge.SendMedia(
                at_ms=1382349000000,
                sender=helpers.OWNER,
                to=helpers.PARTNER,
                media_kind="image",
                content=bytes(received),
                server_filename=server_name,
            ),
        ),
    )
    sender = ingest.load_case_bundle(
        forge.generate_bundle(sender_script, tmp_path / "sender").root
    )
    recipient = ingest.load_case_bundle(
        forge.generate_bundle(recipient_script, tmp_path / "recipient").root
    )
    return sender, recipient


def test_media_full_confidence_match(tmp_path):
    sender, recipient = _media_pair(tmp_path)
    findings = correlate_media(
        sender.messages, recipient.messages, recipient.media_inventory
    )
    full = [f for f in findings if f.payload.get("match") == "full"]
    assert len(full) == 1
    local = [f for f in findings if f.payload.get("match") == "local-file"]
    assert local, "recipient file should be identified by hash"
    assert any("Media/" in f.payload["path"] for f in local)


def test_media_perturbation_demotes_to_name_only(tmp_path):
    sender, recipient = _media_pair(tmp_path, perturb=True)
    findings = correlate_media(
        sender.messages, recipient.messages, recipient.media_inventory
    )
    matches = {f.payload.get("match") for f in findings}
    assert "full" not in matches
    name_only = [f for f in findings if f.payload.get("match") == "name-only"]
    assert len(name_only) == 1


def test_media_hash_only_match():
    digest = base64.b64encode(hashlib.sha256(b"payload").digest()).decode()
    sender = make_record(
        id=1,
        from_me=True,
        media_wa_type=1,
        media_hash=digest,
        media_url="https://mms402.whatsapp.net/d/name-one.jpg",
    )
    recipient = make_record(
        id=2,
        media_wa_type=1,
        media_hash=digest,
        media_url="https://mms402.whatsapp.net/d/name-two.jpg",
    )
    findings = correlate_media([sender], [recipient], ())
    assert [f.payload["match"] for f in findings] == ["hash-only"]


def test_media_no_overlap():
    sender = make_record(id=1, from_me=True, media_wa_type=1, media_hash=None, media_url=None)
    assert correlate_media([sender], [], ()) == []


def test_recipient_file_identified_by_hash():
    payload = b"received-bytes"
    digest_b64 = base64.b64encode(hashlib.sha256(payload).digest()).decode()
    record = make_record(
        id=5, media_wa_type=2, media_hash=digest_b64, media_url=None, media_name=""
    )
    inventory = (
        MediaFile(
            path="mnt/sdcard/WhatsApp/Media/blob.m4a",
            size_bytes=len(payload),
            known_sha256=hashlib.sha256(payload).hexdigest(),
        ),
    )
    findings = correlate_media([], [record], inventory)
    assert [f.payload["match"] for f in findings] == ["local-file"]
    assert findings[0].payload["record_id"] == 5


def test_media_files_not_hashed_without_a_record_hash(tmp_path, monkeypatch):
    """No record carries a decodable 32-byte hash, so no file is read."""

    def unreadable(path):
        raise AssertionError(f"{path} hashed")

    monkeypatch.setattr(model, "file_sha256", unreadable)
    short = base64.b64encode(b"sixteen byte sum").decode()
    sender = make_record(id=1, from_me=True, media_wa_type=1, media_hash=short, media_url=None)
    recipient = make_record(id=2, media_wa_type=1, media_hash="not base64!", media_url=None)
    plain = make_record(id=3, media_wa_type=1, media_hash=None, media_url=None)
    inventory = (MediaFile("mnt/sdcard/WhatsApp/Media/a.jpg", 3, source=tmp_path / "a.jpg"),)
    assert correlate_media([sender], [recipient, plain], inventory) == []
    assert "sha256" not in vars(inventory[0])


def _media_pairs_by_nested_loop(sender_records, recipient_records) -> list[Finding]:
    """Reference: every media sender record compared with every media recipient record."""
    findings = []
    senders = [r for r in sender_records if r.media_wa_type in (1, 2, 3)]
    recipients = [r for r in recipient_records if r.media_wa_type in (1, 2, 3)]
    for s_rec in sorted(senders, key=lambda r: r.id):
        s_name = server_filename(s_rec.media_url)
        s_hash = s_rec.media_hash
        for r_rec in sorted(recipients, key=lambda r: r.id):
            r_name = server_filename(r_rec.media_url)
            r_hash = r_rec.media_hash
            name_match = s_name is not None and s_name == r_name
            hash_match = s_hash is not None and s_hash == r_hash
            if not name_match and not hash_match:
                continue
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
    return findings


def test_media_pairing_matches_nested_loop():
    def media(rid, name, digest, from_me, **overrides):
        url = f"https://mms402.whatsapp.net/d/{name}" if name else None
        return make_record(
            id=rid,
            key_id_raw=f"1-{rid}",
            from_me=from_me,
            media_wa_type=overrides.pop("media_wa_type", 1),
            media_hash=digest,
            media_url=url,
            **overrides,
        )

    senders = [
        media(5, "dup.jpg", "h5", True),
        media(1, "a.jpg", "h1", True),
        media(2, "b.jpg", "h2", True),
        media(3, None, "h3", True),
        media(4, "a.jpg", None, True),  # name-only against 10 and the first 13
        media(2, "c.jpg", None, True),  # same id as another sender
        media(6, None, None, True),
        media(7, "a.jpg", "h1", True, media_wa_type=0),  # not media: never paired
    ]
    recipients = [
        media(16, None, None, False),
        media(15, "dup.jpg", "x", False),
        media(13, "a.jpg", None, False),
        media(10, "a.jpg", "h1", False),  # full with s1, name-only with s4
        media(12, "other.jpg", "h3", False),  # hash-only with s3
        media(11, "c.jpg", "h2", False),  # hash-only with s2, name-only with the other s2
        media(14, "dup.jpg", "x", False),  # duplicate server name
        media(13, "", "h5", False),  # same id as another recipient, hash-only with s5
        media(17, "b.jpg", "h2", False, media_wa_type=4),
    ]
    expected = _media_pairs_by_nested_loop(senders, recipients)
    assert correlate_media(senders, recipients, ()) == expected
    assert {f.payload["match"] for f in expected} == {"full", "name-only", "hash-only"}
    assert sum(f.payload["recipient_record_id"] == 10 for f in expected) == 2
    assert sum(f.payload["recipient_record_id"] == 13 for f in expected) == 3
    reversed_expected = _media_pairs_by_nested_loop(senders[::-1], recipients[::-1])
    assert correlate_media(senders[::-1], recipients[::-1], ()) == reversed_expected


# --- identity ---------------------------------------------------------------------------


def test_identity_match():
    bundle = CaseBundle(registered_number="393401234567")
    finding = identity_check(bundle, "393401234567")
    assert finding.payload["match"] is True


def test_identity_mismatch_flags_impersonation():
    bundle = CaseBundle(registered_number="393401234567")
    finding = identity_check(bundle, "393409999999")
    assert finding.payload["match"] is False
    assert "impersonation" in finding.confidence_note


def test_identity_compares_ascii_digits_only():
    # Another script's digit, or a superscript, is not a digit of the number.
    assert correlator._digits("+\u0663\u0669 39\u00b2-340.1234567") == "393401234567"
    bundle = CaseBundle(registered_number="393401234567")
    assert identity_check(bundle, "+39 340 123-4567").payload["match"] is True


@pytest.mark.parametrize(
    "registered, sim, digitless",
    [
        ("393401234567", "abc", "the SIM number"),
        ("unknown", "393401234567", "the registered number"),
        ("unknown", "n/a", "the registered number nor in the SIM number"),
    ],
)
def test_identity_abstains_on_a_number_without_digits(registered, sim, digitless):
    finding = identity_check(CaseBundle(registered_number=registered), sim)
    assert finding.payload["match"] is None
    assert finding.confidence_note == f"no digit 0-9 in {digitless}"


def test_identity_unavailable():
    finding = identity_check(CaseBundle(), "393401234567")
    assert finding.payload["registered_number"] is None
    assert "unavailable" in finding.summary
